(* Bit identity of the word-at-a-time byte kernels (slicing-by-8
   CRC-32C, word-load LZ compression) against the byte-at-a-time
   oracles in Ref_kernels: the on-disk format depends on every output
   byte staying the same. *)

open Lt_util
module Lz = Lt_lz.Lz

(* Input shapes. Random bytes never match; a 4-letter alphabet matches
   everywhere; row-shaped input is what tablet blocks hold — short
   structured keys and length prefixes (compressible) between
   incompressible payloads. *)
let random_input rng n = Xorshift.bytes rng n

let compressible_input rng n = String.init n (fun _ -> "abcd".[Xorshift.int rng 4])

let row_shaped_input rng n =
  let b = Buffer.create n in
  let i = ref 0 in
  while Buffer.length b < n do
    Buffer.add_string b "\x80\x00\x00\x00\x00\x00\x00\x01";
    Buffer.add_int64_be b (Int64.of_int (!i mod 37));
    Buffer.add_int64_be b (Int64.of_int (1_700_000_000 + !i));
    Buffer.add_char b '\x40';
    Buffer.add_string b (Xorshift.bytes rng 64);
    incr i
  done;
  Buffer.sub b 0 n

let shapes =
  [ ("random", random_input);
    ("compressible", compressible_input);
    ("row-shaped", row_shaped_input);
    ("constant", fun _ n -> String.make n 'z') ]

(* Lengths 0 to 70 000, weighted toward short inputs where the tails
   (the 8-byte stride, [mf_limit + min_match] = 16) dominate. *)
let length_gen =
  QCheck.Gen.(frequency [ (3, int_bound 64); (2, int_bound 4096); (2, int_bound 70_000) ])

let input_gen =
  QCheck.Gen.(
    map3
      (fun n (_, shape) seed -> shape (Xorshift.create (Int64.of_int seed)) n)
      length_gen (oneofl shapes) int)

let input = QCheck.make ~print:(fun s -> Printf.sprintf "<%d bytes>" (String.length s)) input_gen

let prop_crc =
  QCheck.Test.make ~name:"crc32c equals byte-at-a-time reference" ~count:300
    QCheck.(pair input small_nat)
    (fun (s, cut) ->
      let n = String.length s in
      let cut = if n = 0 then 0 else cut mod (n + 1) in
      Crc32c.string s = Ref_kernels.crc32c s
      (* Unaligned starts and split updates too. *)
      && Crc32c.update (Crc32c.update Crc32c.empty s 0 cut) s cut (n - cut)
         = Ref_kernels.crc32c s
      && Crc32c.string ~off:cut s = Ref_kernels.crc32c_update 0l s cut (n - cut))

let prop_lz =
  QCheck.Test.make ~name:"lz compress equals byte-at-a-time reference" ~count:300
    input (fun s ->
      let c = Ref_kernels.lz_compress s in
      Lz.compress s = c
      && Lz.compress_if_smaller s
         = if String.length c < String.length s then Some c else None)

(* Every length through the short-input cutoff and a few word strides
   past it, plus tails around 64 kB, in every shape. *)
let test_tail_lengths () =
  let lengths =
    List.init 49 Fun.id @ List.init 24 (fun i -> 65_536 - 12 + i) @ [ 70_000 ]
  in
  let rng = Xorshift.create 17L in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, input) ->
          let s = input rng n in
          let what = Printf.sprintf "%s, %d bytes" shape n in
          Alcotest.(check int32) ("crc " ^ what) (Ref_kernels.crc32c s)
            (Crc32c.string s);
          Alcotest.(check string) ("lz " ^ what) (Ref_kernels.lz_compress s)
            (Lz.compress s);
          Alcotest.(check string) ("lz roundtrip " ^ what) s
            (Lz.decompress ~raw_len:n (Lz.compress s)))
        shapes)
    lengths

let suite =
  [
    ("kernel tail lengths", `Quick, test_tail_lengths);
    Support.qcheck prop_crc;
    Support.qcheck prop_lz;
  ]
