exception Corrupt of string

let corrupt fmt = Format.kasprintf (fun s -> raise (Corrupt s)) fmt

let min_match = 4

(* Matches may not start within the final [mf_limit] bytes; the last
   sequence is literal-only. This mirrors the end-of-block conditions of
   other codecs in this family and keeps the decoder's copy loops simple. *)
let mf_limit = 12

let hash_log = 13

let hash_size = 1 lsl hash_log

(* Unchecked word loads; every caller stays inside the input. The hash
   reads its 4 bytes little-endian on any host, so the output is the
   same everywhere; match tests only compare words for equality.
   [big_endian ()] is a compile-time constant. *)
external get32 : string -> int -> int32 = "%caml_string_get32u"
external get64 : string -> int -> int64 = "%caml_string_get64u"
external big_endian : unit -> bool = "%big_endian"
external bswap32 : int32 -> int32 = "%bswap_int32"

let load32 s i =
  let w = get32 s i in
  Int32.to_int (if big_endian () then bswap32 w else w) land 0xffffffff

(* Multiplicative hash of a 4-byte word. *)
let hash w = (w * 2654435761) lsr (32 - hash_log) land (hash_size - 1)

let max_compressed_len n = n + (n / 255) + 16

(* The writers below fill [out] (sized by [max_compressed_len]) from
   position [op] and return the position after what they wrote. *)

(* A literal-length / match-length extension in token format. *)
let put_length out op extra =
  let op = ref op and n = ref extra in
  while !n >= 255 do
    Bytes.set out !op '\xff';
    incr op;
    n := !n - 255
  done;
  Bytes.set out !op (Char.unsafe_chr !n);
  !op + 1

(* One sequence: [lit_len] literals from [lit_start], then a match of
   [match_len] bytes at [offset] back ([match_len = 0]: literals only,
   the final sequence). *)
let emit_sequence out op src ~lit_start ~lit_len ~match_len ~offset =
  let lit_token = if lit_len >= 15 then 15 else lit_len in
  let match_token =
    if match_len = 0 then 0
    else if match_len - min_match >= 15 then 15
    else match_len - min_match
  in
  Bytes.set out op (Char.unsafe_chr ((lit_token lsl 4) lor match_token));
  let op =
    if lit_len >= 15 then put_length out (op + 1) (lit_len - 15) else op + 1
  in
  Bytes.blit_string src lit_start out op lit_len;
  let op = op + lit_len in
  if match_len = 0 then op
  else begin
    Bytes.set out op (Char.unsafe_chr (offset land 0xff));
    Bytes.set out (op + 1) (Char.unsafe_chr ((offset lsr 8) land 0xff));
    if match_len - min_match >= 15 then
      put_length out (op + 2) (match_len - min_match - 15)
    else op + 2
  end

(* Scratch for one compression: the hash table and an output buffer of
   at least [max_compressed_len n] bytes. One set is kept between calls,
   so a steady stream of block compressions allocates only results; a
   call that finds it taken (another thread or domain is compressing)
   makes its own. Outputs over 1 MB are not kept. *)
type scratch = { table : int array; out : Bytes.t }

let spare : scratch option Atomic.t = Atomic.make None

let take_scratch n =
  match Atomic.exchange spare None with
  | Some s when Bytes.length s.out >= max_compressed_len n ->
      Array.fill s.table 0 hash_size (-1);
      s
  | _ ->
      { table = Array.make hash_size (-1);
        out = Bytes.create (max_compressed_len n) }

let give_scratch s =
  if Bytes.length s.out <= 1 lsl 20 then Atomic.set spare (Some s)

(* Compress nonempty [src] into [s.out]; returns the output length. *)
let compress_into { table; out } src =
  let n = String.length src in
  if n < mf_limit + min_match then
    (* Too short for any match: one literal-only sequence. *)
    emit_sequence out 0 src ~lit_start:0 ~lit_len:n ~match_len:0 ~offset:0
  else begin
    let match_limit = n - mf_limit in
    let op = ref 0 in
    let anchor = ref 0 in
    let i = ref 0 in
    while !i < match_limit do
      let w = load32 src !i in
      let h = hash w in
      let cand = Array.unsafe_get table h in
      Array.unsafe_set table h !i;
      if cand >= 0 && !i - cand <= 0xffff && load32 src cand = w then begin
        (* Extend the match forward, staying clear of the tail: eight
           bytes a step while a whole word fits, then byte by byte to
           the first difference. *)
        let limit = n - 5 in
        let ml = ref min_match in
        while
          !i + !ml + 8 <= limit && get64 src (cand + !ml) = get64 src (!i + !ml)
        do
          ml := !ml + 8
        done;
        while
          !i + !ml < limit
          && String.unsafe_get src (cand + !ml) = String.unsafe_get src (!i + !ml)
        do
          incr ml
        done;
        op :=
          emit_sequence out !op src ~lit_start:!anchor ~lit_len:(!i - !anchor)
            ~match_len:!ml ~offset:(!i - cand);
        i := !i + !ml;
        anchor := !i;
        (* Seed the table inside the match so nearby repeats are found. *)
        if !i < match_limit then table.(hash (load32 src (!i - 2))) <- !i - 2
      end
      else incr i
    done;
    emit_sequence out !op src ~lit_start:!anchor ~lit_len:(n - !anchor)
      ~match_len:0 ~offset:0
  end

(* [keep len] decides from the output length whether to copy it out. *)
let with_output src keep =
  let n = String.length src in
  if n = 0 then keep 0 Bytes.empty
  else begin
    let s = take_scratch n in
    let len = compress_into s src in
    let r = keep len s.out in
    give_scratch s;
    r
  end

let compress src = with_output src (fun len out -> Bytes.sub_string out 0 len)

let compress_if_smaller src =
  with_output src (fun len out ->
      if len < String.length src then Some (Bytes.sub_string out 0 len) else None)

let decompress ~raw_len src =
  if raw_len < 0 then corrupt "negative raw length %d" raw_len;
  if raw_len = 0 then begin
    if src <> "" then corrupt "nonempty block for empty output";
    ""
  end
  else begin
    let n = String.length src in
    let out = Bytes.create raw_len in
    let op = ref 0 (* output position *) in
    let ip = ref 0 (* input position *) in
    let read_byte () =
      if !ip >= n then corrupt "truncated block at input offset %d" !ip;
      let c = Char.code (String.unsafe_get src !ip) in
      incr ip;
      c
    in
    let read_length base =
      if base <> 15 then base
      else begin
        let total = ref base in
        let continue = ref true in
        while !continue do
          let c = read_byte () in
          total := !total + c;
          if c <> 255 then continue := false
        done;
        !total
      end
    in
    let finished = ref false in
    while not !finished do
      let token = read_byte () in
      let lit_len = read_length (token lsr 4) in
      if !ip + lit_len > n then corrupt "literal run overruns input";
      if !op + lit_len > raw_len then corrupt "literal run overruns output";
      Bytes.blit_string src !ip out !op lit_len;
      ip := !ip + lit_len;
      op := !op + lit_len;
      if !ip = n then begin
        (* Last sequence: literals only. *)
        if token land 0x0f <> 0 then corrupt "final sequence declares a match";
        finished := true
      end
      else begin
        let o1 = read_byte () in
        let o2 = read_byte () in
        let offset = o1 lor (o2 lsl 8) in
        if offset = 0 || offset > !op then
          corrupt "bad match offset %d at output %d" offset !op;
        let match_len = min_match + read_length (token land 0x0f) in
        if !op + match_len > raw_len then corrupt "match overruns output";
        (* Byte-wise copy: overlapping matches (offset < len) are valid. *)
        let from = !op - offset in
        for k = 0 to match_len - 1 do
          Bytes.unsafe_set out (!op + k) (Bytes.unsafe_get out (from + k))
        done;
        op := !op + match_len
      end
    done;
    if !op <> raw_len then
      corrupt "block decoded to %d bytes, expected %d" !op raw_len;
    Bytes.unsafe_to_string out
  end
