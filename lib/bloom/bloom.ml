open Lt_util

type t = { bits : Bytes.t; nbits : int; k : int }

(* FNV-1a over OCaml's 63-bit native int (unboxed — a boxed Int64
   multiply per input byte would dominate tablet flushes), with a seed
   mixed in so we get two independent hash streams. *)
let fnv1a seed s =
  let h = ref (0x3bf29ce484222325 lxor seed) in
  for i = 0 to String.length s - 1 do
    h := !h lxor Char.code (String.unsafe_get s i);
    h := !h * 0x100000001b3
  done;
  !h land max_int

let create ?(bits_per_key = 10) ~expected_keys () =
  let nbits = max 64 (bits_per_key * max 1 expected_keys) in
  (* Round up to a whole number of bytes. *)
  let nbytes = (nbits + 7) / 8 in
  let nbits = nbytes * 8 in
  (* Optimal k = ln 2 * bits/key, clamped to a sane range. *)
  let k = max 1 (min 16 (int_of_float (0.69 *. float_of_int bits_per_key))) in
  { bits = Bytes.make nbytes '\000'; nbits; k }

(* The [i]th of a key's [k] bit indices, from its two hashes. *)
let index t h1 h2 i = ((h1 + (i * h2)) land max_int) mod t.nbits

let set_bit t idx =
  let byte = idx lsr 3 and bit = idx land 7 in
  Bytes.set t.bits byte
    (Char.chr (Char.code (Bytes.get t.bits byte) lor (1 lsl bit)))

let get_bit t idx =
  let byte = idx lsr 3 and bit = idx land 7 in
  Char.code (Bytes.get t.bits byte) land (1 lsl bit) <> 0

(* Plain loops rather than a callback per index: [add] runs once per key
   and per key prefix of every tablet row written. *)
let add t key =
  let h1 = fnv1a 0 key and h2 = fnv1a 0x1E3779B97F4A7C15 key in
  for i = 0 to t.k - 1 do
    set_bit t (index t h1 h2 i)
  done

let mem t key =
  let h1 = fnv1a 0 key and h2 = fnv1a 0x1E3779B97F4A7C15 key in
  let i = ref 0 in
  while !i < t.k && get_bit t (index t h1 h2 !i) do
    incr i
  done;
  !i = t.k

let bit_count t = t.nbits

let hash_count t = t.k

let encode buf t =
  Binio.put_varint buf t.k;
  Binio.put_string buf (Bytes.to_string t.bits)

let decode cur =
  let k = Binio.get_varint cur in
  let bits = Binio.get_string cur in
  if k < 1 || k > 64 then raise (Binio.Corrupt "bloom: bad hash count");
  if bits = "" then raise (Binio.Corrupt "bloom: empty bit array");
  { bits = Bytes.of_string bits; nbits = String.length bits * 8; k }
