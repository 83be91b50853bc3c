type t = int32

(* Reflected CRC-32C, polynomial 0x1EDC6F41 (reversed: 0x82F63B78).
   The hot loop works on native ints: OCaml's int32 is boxed, and a
   per-byte boxed operation would dominate the flush path.

   Slicing-by-8: table 0 of [tables] is the classic byte table and table
   k advances a byte through k more zero bytes, so one step folds eight
   input bytes with independent lookups. *)
let poly = 0x82F63B78

let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      let lsb = !c land 1 in
      c := !c lsr 1;
      if lsb <> 0 then c := !c lxor poly
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

let empty = 0l

let mask32 = 0xFFFFFFFF

(* Unchecked, like [String.unsafe_get] below: [string] validates the
   range. [big_endian ()] is a compile-time constant. *)
external get32 : string -> int -> int32 = "%caml_string_get32u"
external big_endian : unit -> bool = "%big_endian"

let update crc s off len =
  let c = ref (Int32.to_int (Int32.lognot crc) land mask32) in
  let i = ref off in
  let stop = off + len in
  (* Words are read little-endian; big-endian hosts use the byte loop. *)
  if not (big_endian ()) then
    while !i + 8 <= stop do
      let lo = (Int32.to_int (get32 s !i) land mask32) lxor !c in
      let hi = Int32.to_int (get32 s (!i + 4)) land mask32 in
      c :=
        Array.unsafe_get tables (0x700 + (lo land 0xff))
        lxor Array.unsafe_get tables (0x600 + ((lo lsr 8) land 0xff))
        lxor Array.unsafe_get tables (0x500 + ((lo lsr 16) land 0xff))
        lxor Array.unsafe_get tables (0x400 + (lo lsr 24))
        lxor Array.unsafe_get tables (0x300 + (hi land 0xff))
        lxor Array.unsafe_get tables (0x200 + ((hi lsr 8) land 0xff))
        lxor Array.unsafe_get tables (0x100 + ((hi lsr 16) land 0xff))
        lxor Array.unsafe_get tables (hi lsr 24);
      i := !i + 8
    done;
  for j = !i to stop - 1 do
    let idx = (!c lxor Char.code (String.unsafe_get s j)) land 0xff in
    c := (!c lsr 8) lxor Array.unsafe_get tables idx
  done;
  Int32.lognot (Int32.of_int !c)

let string ?(off = 0) ?len s =
  let len = match len with Some l -> l | None -> String.length s - off in
  if off < 0 || len < 0 || off + len > String.length s then
    invalid_arg "Crc32c.string: bad substring";
  update empty s off len

let bytes ?off ?len b = string ?off ?len (Bytes.unsafe_to_string b)
