(* Workload inputs. Every row is a pure function of the seed and its key,
   so the correctness checks can regenerate exactly what was sent
   without keeping it. Rows have the paper's Fig. 1 usage shape: key
   (network, device, ts), two counters, and a payload filled by xorshift
   so LZ cannot shrink it; the payload length is chosen so a row stores
   ~128 B, the row size behind the paper's insert figure (§5.1.2). *)

open Littletable
module Xorshift = Lt_util.Xorshift

let table = "usage"

(* 2024-07-01 00:00 UTC, a Monday: every dataset sits inside one
   epoch-aligned week, so time periods (§3.4.2) never split it. *)
let base_ts = 1_719_792_000_000_000L

let devices_per_network = 8

let schema =
  let c name ctype default = { Schema.name; ctype; default } in
  Schema.create
    ~columns:
      [ c "network" Value.T_int64 (Value.Int64 0L);
        c "device" Value.T_int64 (Value.Int64 0L);
        c "ts" Value.T_timestamp (Value.Timestamp 0L);
        c "bytes_sent" Value.T_int64 (Value.Int64 0L);
        c "bytes_recv" Value.T_int64 (Value.Int64 0L);
        c "payload" Value.T_blob (Value.Blob "") ]
    ~pkey:[ "network"; "device"; "ts" ]

let target_row_bytes = 128

(* splitmix64 finaliser: decorrelates nearby (seed, key) inputs. *)
let mix64 x =
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = Int64.mul (Int64.logxor x (Int64.shift_right_logical x 27)) 0x94d049bb133111ebL in
  Int64.logxor x (Int64.shift_right_logical x 31)

let rng ~seed parts =
  Xorshift.create
    (List.fold_left (fun h p -> mix64 (Int64.add (Int64.mul h 31L) p)) (mix64 seed) parts)

let make_row ~seed ~payload_len ~net ~dev ~ts =
  let r = rng ~seed [ net; dev; ts ] in
  let sent = Int64.of_int (Xorshift.int r 1_000_000) in
  let recv = Int64.of_int (Xorshift.int r 4_000_000) in
  [| Value.Int64 net; Value.Int64 dev; Value.Timestamp ts; Value.Int64 sent;
     Value.Int64 recv; Value.Blob (Xorshift.bytes r payload_len) |]

(* Payload length that brings the stored row (key + value encodings) to
   the target size. *)
let payload_len =
  let size n =
    Row_codec.stored_size schema
      (make_row ~seed:1L ~payload_len:n ~net:1L ~dev:1L ~ts:base_ts)
  in
  let n = ref 1 in
  while size (!n + 1) <= target_row_bytes do incr n done;
  !n

let row ~seed ~net ~dev ~ts = make_row ~seed ~payload_len ~net ~dev ~ts
let row_bytes = Row_codec.stored_size schema (row ~seed:1L ~net:1L ~dev:1L ~ts:base_ts)

let int64_cell r i = match r.(i) with Value.Int64 v | Value.Timestamp v -> v | _ -> 0L
let net_of r = int64_cell r 0
let dev_of r = int64_cell r 1
let ts_of r = int64_cell r 2
let sent_of r = int64_cell r 3
let recv_of r = int64_cell r 4

(* A row's hash; summing these gives an order-insensitive digest of a
   row set. *)
let row_hash r =
  let h = ref 0L in
  Array.iter
    (fun v ->
      let x =
        match v with
        | Value.Int64 v | Value.Timestamp v -> v
        | Value.Blob s | Value.String s -> Int64.of_int (Hashtbl.hash s)
        | Value.Int32 v -> Int64.of_int32 v
        | Value.Double f -> Int64.bits_of_float f
      in
      h := mix64 (Int64.add (Int64.mul !h 31L) x))
    r;
  !h

(* Row count, digest, and strict key order of a row stream. *)
type check = { mutable n : int; mutable digest : int64; mutable ordered : bool;
               mutable last : (int64 * int64 * int64) option }

let check_create () = { n = 0; digest = 0L; ordered = true; last = None }

let check_add c r =
  let k = (net_of r, dev_of r, ts_of r) in
  (match c.last with Some l when compare l k >= 0 -> c.ordered <- false | _ -> ());
  c.last <- Some k;
  c.n <- c.n + 1;
  c.digest <- Int64.add c.digest (row_hash r)

(* A regular polled dataset: [networks] networks of
   [devices_per_network] devices, each sampled at [samples] timestamps
   [step] apart from [base_ts]. *)
let dataset_rows ~seed ~networks ~samples ~step =
  let rows = ref [] in
  for s = samples - 1 downto 0 do
    let ts = Int64.add base_ts (Int64.mul (Int64.of_int s) step) in
    for net = networks downto 1 do
      for dev = devices_per_network downto 1 do
        rows := row ~seed ~net:(Int64.of_int net) ~dev:(Int64.of_int dev) ~ts :: !rows
      done
    done
  done;
  !rows

(* [l] cut into consecutive lists of at most [n]. *)
let chunks n l =
  let rec go acc cur k = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | x :: rest ->
        if k = n then go (List.rev cur :: acc) [ x ] 1 rest else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 l
