open Lt_util

type t = { schema : Schema.t; count : int; data : string; off : int; len : int }

let of_string schema ~count data =
  { schema; count; data; off = 0; len = String.length data }

let entries page = Binio.cursor ~pos:page.off ~len:page.len page.data

let add buf ~key ~value =
  Binio.put_string buf key;
  Binio.put_string buf value

(* Step over one entry, returning the key's offset and length and
   leaving the cursor at the value's length prefix. *)
let key_span cur =
  let klen = Binio.get_varint cur in
  if klen < 8 then
    raise
      (Binio.Corrupt
         (Printf.sprintf "page key of %d bytes at offset %d" klen cur.Binio.pos));
  let koff = cur.Binio.pos in
  Binio.skip cur klen;
  (koff, klen)

(* Every reader walks the entries with [key_span] and bounds-checked
   skips, and checks at the last entry that the bytes end there: a
   malformed page raises [Binio.Corrupt] wherever it is read, so nothing
   walks a page just to check it. *)
let stream ?into page =
  let cur = entries page in
  let left = ref page.count in
  let next_raw () =
    decr left;
    let koff, klen = key_span cur in
    let key = String.sub page.data koff klen in
    let vlen = Binio.get_varint cur in
    let voff = cur.Binio.pos in
    Binio.skip cur vlen;
    if !left = 0 then Binio.expect_end cur;
    (key, voff, vlen)
  in
  let into = Option.value into ~default:page.schema in
  if Schema.version page.schema > Schema.version into then
    raise
      (Schema.Invalid
         (Printf.sprintf "page schema v%d is newer than the reader's v%d"
            (Schema.version page.schema) (Schema.version into)));
  if page.count = 0 then Binio.expect_end cur;
  if Schema.equal into page.schema then fun () ->
    if !left = 0 then None
    else begin
      let key, off, len = next_raw () in
      Some (key, String.sub page.data off len)
    end
  else fun () ->
    if !left = 0 then None
    else begin
      let key, off, len = next_raw () in
      let row =
        Row_codec.decode_translated_slice ~from:page.schema ~into ~key
          ~data:page.data ~off ~len
      in
      Some (Key_codec.encode_key into row, Row_codec.encode_value into row)
    end

(* A full page is megabytes: its bytes gather in pieces of at most
   about [piece] bytes, joined once at the end, not in a buffer that
   doubles all the way and is then copied. The buffer starts small, so
   a page of a few rows allocates little. *)
let piece = 64 * 1024

let collect schema ~cap src =
  let buf = Buffer.create 1024 in
  let pieces = ref [] in
  let rec go n =
    if n = cap then (n, src () <> None)
    else
      match src () with
      | None -> (n, false)
      | Some (key, value) ->
          add buf ~key ~value;
          if Buffer.length buf >= piece then begin
            pieces := Buffer.contents buf :: !pieces;
            Buffer.clear buf
          end;
          go (n + 1)
  in
  let count, more = go 0 in
  let data =
    match !pieces with
    | [] -> Buffer.contents buf
    | pieces -> String.concat "" (List.rev (Buffer.contents buf :: pieces))
  in
  (of_string schema ~count data, more)

let rows page =
  let cur = entries page in
  let rows =
    List.init page.count (fun _ ->
        let key_off, key_len = key_span cur in
        let len = Binio.get_varint cur in
        let off = cur.Binio.pos in
        Binio.skip cur len;
        Row_codec.decode_entry page.schema ~data:page.data ~key_off ~key_len
          ~off ~len)
  in
  Binio.expect_end cur;
  rows

let last_key page =
  if page.count = 0 then None
  else begin
    let cur = entries page in
    let last = ref (0, 0) in
    for _ = 1 to page.count do
      last := key_span cur;
      Binio.skip cur (Binio.get_varint cur)
    done;
    Binio.expect_end cur;
    let off, len = !last in
    Some (Key_codec.decode_key page.schema (String.sub page.data off len))
  end
