(* Byte-at-a-time reference kernels: the plain table-driven CRC-32C and
   the plain LZ compressor, kept as oracles for the word-at-a-time
   versions in lib/. Same polynomial, hash, match rule and token format;
   the properties in Test_kernels require bit-identical output. *)

let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        let lsb = !c land 1 in
        c := !c lsr 1;
        if lsb <> 0 then c := !c lxor 0x82F63B78
      done;
      !c)

let crc32c_update crc s off len =
  let c = ref (Int32.to_int (Int32.lognot crc) land 0xFFFFFFFF) in
  for i = off to off + len - 1 do
    let idx = (!c lxor Char.code s.[i]) land 0xff in
    c := (!c lsr 8) lxor crc_table.(idx)
  done;
  Int32.lognot (Int32.of_int !c)

let crc32c s = crc32c_update 0l s 0 (String.length s)

let min_match = 4

let mf_limit = 12

let hash_log = 13

let hash_size = 1 lsl hash_log

let hash4 s i =
  let w =
    Char.code s.[i]
    lor (Char.code s.[i + 1] lsl 8)
    lor (Char.code s.[i + 2] lsl 16)
    lor (Char.code s.[i + 3] lsl 24)
  in
  (w * 2654435761) lsr (32 - hash_log) land (hash_size - 1)

let put_length b extra =
  let rec go n =
    if n >= 255 then begin
      Buffer.add_char b '\xff';
      go (n - 255)
    end
    else Buffer.add_char b (Char.chr n)
  in
  go extra

let emit_sequence b src ~lit_start ~lit_len ~match_len ~offset =
  let lit_token = if lit_len >= 15 then 15 else lit_len in
  let match_token =
    match match_len with
    | None -> 0
    | Some ml -> if ml - min_match >= 15 then 15 else ml - min_match
  in
  Buffer.add_char b (Char.chr ((lit_token lsl 4) lor match_token));
  if lit_len >= 15 then put_length b (lit_len - 15);
  Buffer.add_substring b src lit_start lit_len;
  match match_len with
  | None -> ()
  | Some ml ->
      Buffer.add_char b (Char.chr (offset land 0xff));
      Buffer.add_char b (Char.chr ((offset lsr 8) land 0xff));
      if ml - min_match >= 15 then put_length b (ml - min_match - 15)

let lz_compress src =
  let n = String.length src in
  if n = 0 then ""
  else if n < mf_limit + min_match then begin
    let b = Buffer.create (n + 3) in
    emit_sequence b src ~lit_start:0 ~lit_len:n ~match_len:None ~offset:0;
    Buffer.contents b
  end
  else begin
    let b = Buffer.create (n / 2) in
    let table = Array.make hash_size (-1) in
    let match_limit = n - mf_limit in
    let anchor = ref 0 in
    let i = ref 0 in
    while !i < match_limit do
      let h = hash4 src !i in
      let cand = table.(h) in
      table.(h) <- !i;
      if
        cand >= 0
        && !i - cand <= 0xffff
        && src.[cand] = src.[!i]
        && src.[cand + 1] = src.[!i + 1]
        && src.[cand + 2] = src.[!i + 2]
        && src.[cand + 3] = src.[!i + 3]
      then begin
        let limit = n - 5 in
        let ml = ref min_match in
        while !i + !ml < limit && src.[cand + !ml] = src.[!i + !ml] do
          incr ml
        done;
        emit_sequence b src ~lit_start:!anchor ~lit_len:(!i - !anchor)
          ~match_len:(Some !ml) ~offset:(!i - cand);
        i := !i + !ml;
        anchor := !i;
        if !i < match_limit then table.(hash4 src (!i - 2)) <- !i - 2
      end
      else incr i
    done;
    emit_sequence b src ~lit_start:!anchor ~lit_len:(n - !anchor)
      ~match_len:None ~offset:0;
    Buffer.contents b
  end
