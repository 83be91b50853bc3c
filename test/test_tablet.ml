open Littletable
module Vfs = Lt_vfs.Vfs

(* ---- Block ----------------------------------------------------------- *)

let test_block_roundtrip () =
  let b = Block.builder () in
  let entries =
    List.init 100 (fun i -> (Printf.sprintf "key%04d" i, Printf.sprintf "val%d" i))
  in
  List.iter (fun (key, value) -> Block.add b ~key ~value) entries;
  Alcotest.(check int) "count" 100 (Block.entry_count b);
  Alcotest.(check bool) "first" true (Block.first_key b = Some "key0000");
  Alcotest.(check bool) "last" true (Block.last_key b = Some "key0099");
  let data = Block.finish b in
  let blk = Block.decode data in
  Alcotest.(check int) "decoded count" 100 (Block.count blk);
  List.iteri
    (fun i (key, value) ->
      let e = Block.entry blk i in
      Alcotest.(check string) "key" key e.Block.key;
      Alcotest.(check string) "value" value e.Block.value)
    entries;
  (* The builder reset: reusable. *)
  Alcotest.(check int) "reset" 0 (Block.entry_count b)

let test_block_ordering_enforced () =
  let b = Block.builder () in
  Block.add b ~key:"b" ~value:"";
  (match Block.add b ~key:"a" ~value:"" with
  | () -> Alcotest.fail "descending key accepted"
  | exception Invalid_argument _ -> ());
  match Block.add b ~key:"b" ~value:"" with
  | () -> Alcotest.fail "duplicate key accepted"
  | exception Invalid_argument _ -> ()

let test_block_search () =
  let b = Block.builder () in
  List.iter (fun k -> Block.add b ~key:k ~value:"") [ "b"; "d"; "f" ];
  let blk = Block.decode (Block.finish b) in
  Alcotest.(check int) "before first" 0 (Block.search_geq blk "a");
  Alcotest.(check int) "exact" 0 (Block.search_geq blk "b");
  Alcotest.(check int) "between" 1 (Block.search_geq blk "c");
  Alcotest.(check int) "last" 2 (Block.search_geq blk "f");
  Alcotest.(check int) "after all" 3 (Block.search_geq blk "z")

let test_block_raw_size_tracks () =
  let b = Block.builder () in
  let before = Block.raw_size b in
  Block.add b ~key:"kkkk" ~value:"vvvvvv";
  Alcotest.(check bool) "grows" true (Block.raw_size b > before);
  let data = Block.finish b in
  Alcotest.(check bool) "estimate >= actual" true
    (String.length data <= before + 4 + 4 + 6 + 2 + 5)

(* ---- Tablet ----------------------------------------------------------- *)

let schema = Support.usage_schema ()

let mk_row i =
  Support.usage_row ~network:(Int64.of_int (i / 100)) ~device:(Int64.of_int (i mod 100))
    ~ts:(Int64.of_int (1_000_000 + i)) ~bytes:(Int64.of_int (i * 10)) ~rate:(float_of_int i)

let write_tablet ?(bloom = 10) ?(block_size = 1024) vfs path rows =
  let w = Tablet.writer vfs ~path ~schema ~block_size ~bloom_bits_per_key:bloom () in
  List.iter
    (fun row ->
      let key = Key_codec.encode_key schema row in
      Tablet.add w ~key ~ts:(Schema.row_ts schema row)
        ~value:(Row_codec.encode_value schema row))
    rows;
  Tablet.finish w

let sorted_rows n =
  (* mk_row generates rows already in key order (network, device, ts). *)
  List.init n mk_row

let drain it =
  let rec go acc = match it () with None -> List.rev acc | Some kv -> go (kv :: acc) in
  go []

let test_write_read_roundtrip () =
  let vfs = Vfs.memory () in
  let rows = sorted_rows 1000 in
  let s = write_tablet vfs "t.tab" rows in
  Alcotest.(check int) "rows" 1000 s.Tablet.row_count;
  Alcotest.(check int64) "min_ts" 1_000_000L s.Tablet.min_ts;
  Alcotest.(check int64) "max_ts" 1_000_999L s.Tablet.max_ts;
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  Alcotest.(check bool) "multiple blocks" true (Tablet.block_count r > 3);
  Alcotest.(check int) "summary rows" 1000 (Tablet.summary r).Tablet.row_count;
  let got = List.map snd (drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ())) in
  Alcotest.(check int) "all rows back" 1000 (List.length got);
  Alcotest.(check bool) "contents equal" true (got = rows);
  let back = List.map snd (drain (Tablet.iter r ~form:Tablet.Decoded ~asc:false ())) in
  Alcotest.(check bool) "desc is reverse" true (back = List.rev rows);
  Tablet.close r

let test_iter_bounds () =
  let vfs = Vfs.memory () in
  let rows = sorted_rows 500 in
  ignore (write_tablet vfs "t.tab" rows);
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  (* Keys for rows 100 (incl) to 150 (excl). *)
  let key_of i = Key_codec.encode_key schema (mk_row i) in
  let got = drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ~lo:(key_of 100) ~hi:(key_of 150) ()) in
  Alcotest.(check int) "range size" 50 (List.length got);
  Alcotest.(check string) "first" (key_of 100) (fst (List.hd got));
  let got_desc = drain (Tablet.iter r ~form:Tablet.Decoded ~asc:false ~lo:(key_of 100) ~hi:(key_of 150) ()) in
  Alcotest.(check bool) "desc same rows" true (got_desc = List.rev got);
  (* Bounds beyond the data. *)
  Alcotest.(check int) "empty high range" 0
    (List.length (drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ~lo:(key_of 9999) ())));
  Alcotest.(check int) "full low range" 500
    (List.length (drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ~lo:"" ())));
  Tablet.close r

let test_bloom_prefixes () =
  let vfs = Vfs.memory () in
  ignore (write_tablet vfs "t.tab" (sorted_rows 300));
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  let p_present = Key_codec.encode_prefix schema [ Value.Int64 1L ] in
  let p_absent = Key_codec.encode_prefix schema [ Value.Int64 424242L ] in
  Alcotest.(check bool) "present prefix passes" true
    (Tablet.may_contain_prefix r p_present);
  Alcotest.(check bool) "absent prefix filtered" false
    (Tablet.may_contain_prefix r p_absent);
  (* Exact-key membership. *)
  Alcotest.(check bool) "mem hit" true
    (Tablet.mem r (Key_codec.encode_key schema (mk_row 5)));
  Alcotest.(check bool) "mem miss" false
    (Tablet.mem r (Key_codec.encode_key schema (mk_row 12345)));
  Tablet.close r

let test_no_bloom () =
  let vfs = Vfs.memory () in
  ignore (write_tablet ~bloom:0 vfs "t.tab" (sorted_rows 10));
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:schema in
  Alcotest.(check bool) "no filter: always maybe" true
    (Tablet.may_contain_prefix r "anything");
  Tablet.close r

let test_empty_tablet_rejected () =
  let vfs = Vfs.memory () in
  let w = Tablet.writer vfs ~path:"e.tab" ~schema ~block_size:1024 ~bloom_bits_per_key:0 () in
  match Tablet.finish w with
  | (_ : Tablet.summary) -> Alcotest.fail "empty tablet written"
  | exception Invalid_argument _ -> ()

let test_abandon () =
  let vfs = Vfs.memory () in
  let w = Tablet.writer vfs ~path:"a.tab" ~schema ~block_size:1024 ~bloom_bits_per_key:0 () in
  let row = mk_row 0 in
  let key = Key_codec.encode_key schema row in
  Tablet.add w ~key ~ts:0L ~value:(Row_codec.encode_value schema row);
  Tablet.abandon w;
  Alcotest.(check bool) "file removed" false (Vfs.exists vfs "a.tab")

let test_schema_translation_on_read () =
  let vfs = Vfs.memory () in
  ignore (write_tablet vfs "t.tab" (sorted_rows 10));
  let s2 =
    Schema.add_column schema
      { Schema.name = "drops"; ctype = Value.T_int32; default = Value.Int32 7l }
  in
  let r = Tablet.open_reader vfs ~path:"t.tab" ~into:s2 in
  Alcotest.(check int) "stored schema version" 0 (Schema.version (Tablet.stored_schema r));
  (match drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ()) with
  | (_, row) :: _ ->
      Alcotest.(check int) "translated arity" 6 (Array.length row);
      Alcotest.(check bool) "default injected" true (row.(5) = Value.Int32 7l)
  | [] -> Alcotest.fail "no rows");
  (* Retargeting on the fly. *)
  Tablet.set_target_schema r schema;
  (match drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ()) with
  | (_, row) :: _ -> Alcotest.(check int) "original arity" 5 (Array.length row)
  | [] -> Alcotest.fail "no rows");
  Tablet.close r

let test_corruption_detected () =
  let vfs = Vfs.memory () in
  ignore (write_tablet vfs "t.tab" (sorted_rows 100));
  let data = Vfs.read_all vfs "t.tab" in
  let corrupt_at pos =
    let b = Bytes.of_string data in
    Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
    let f = Vfs.create vfs "bad.tab" in
    Vfs.append vfs f (Bytes.to_string b);
    Vfs.close vfs f
  in
  (* Flip a byte in the middle of the first block. *)
  corrupt_at 50;
  (match
     let r = Tablet.open_reader vfs ~path:"bad.tab" ~into:schema in
     drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ())
   with
  | (_ : (string * Value.t array) list) -> Alcotest.fail "block corruption missed"
  | exception Lt_util.Binio.Corrupt _ -> ());
  (* Flip a byte in the trailer magic. *)
  corrupt_at (String.length data - 1);
  (match Tablet.open_reader vfs ~path:"bad.tab" ~into:schema with
  | (_ : Tablet.reader) -> Alcotest.fail "trailer corruption missed"
  | exception Lt_util.Binio.Corrupt _ -> ());
  (* Truncated file. *)
  let f = Vfs.create vfs "short.tab" in
  Vfs.append vfs f (String.sub data 0 10);
  Vfs.close vfs f;
  match Tablet.open_reader vfs ~path:"short.tab" ~into:schema with
  | (_ : Tablet.reader) -> Alcotest.fail "truncation missed"
  | exception Lt_util.Binio.Corrupt _ -> ()

let test_large_values () =
  (* Values far larger than the block size (the paper's biggest values
     are 75 kB HLL sets, §5.2.2). *)
  let vfs = Vfs.memory () in
  let s = Support.event_schema () in
  let big = String.make 200_000 'h' in
  let row i =
    [| Value.String "n"; Value.String (Printf.sprintf "d%03d" i);
       Value.Timestamp (Int64.of_int i); Value.Int64 0L; Value.Blob big |]
  in
  let w = Tablet.writer vfs ~path:"big.tab" ~schema:s ~block_size:(64 * 1024)
            ~bloom_bits_per_key:10 () in
  for i = 0 to 4 do
    let key = Key_codec.encode_key s (row i) in
    Tablet.add w ~key ~ts:(Int64.of_int i)
      ~value:(Row_codec.encode_value s (row i))
  done;
  let summary = Tablet.finish w in
  Alcotest.(check int) "rows" 5 summary.Tablet.row_count;
  let r = Tablet.open_reader vfs ~path:"big.tab" ~into:s in
  let rows = drain (Tablet.iter r ~form:Tablet.Decoded ~asc:true ()) in
  Alcotest.(check int) "all back" 5 (List.length rows);
  (match rows with
  | (_, row) :: _ -> Alcotest.(check bool) "blob intact" true (row.(4) = Value.Blob big)
  | [] -> ());
  Tablet.close r

(* ---- Encoded-row merges ------------------------------------------------ *)

(* Merge [inputs] (tablet paths) into [out] the way a table merge does,
   either streaming value encodings into [Tablet.add] or decoded rows
   into [Tablet.add_row]; returns the output file's bytes. *)
let merge_tablets vfs ~schema ?layout ~encoded inputs out =
  let readers = List.map (fun path -> Tablet.open_reader vfs ~path ~into:schema) inputs in
  let w =
    Tablet.writer vfs ~path:out ~schema ~block_size:1024 ~bloom_bits_per_key:10
      ?layout ()
  in
  let merged form = Cursor.merge ~asc:true (List.mapi (fun i r -> (i, Tablet.iter r ~form ~asc:true ())) readers) in
  (if encoded then
     Cursor.fold
       (fun () (key, value) -> Tablet.add w ~key ~ts:(Key_codec.ts_of_key key) ~value)
       () (merged Tablet.Encoded)
   else
     Cursor.fold
       (fun () (key, row) -> Tablet.add_row w ~key ~ts:(Key_codec.ts_of_key key) row)
       () (merged Tablet.Decoded));
  ignore (Tablet.finish w);
  List.iter Tablet.close readers;
  Vfs.read_all vfs out

(* Three tablets whose keys interleave; key [100] is in all three, so
   the merge drops two shadowed copies. *)
let write_interleaved vfs ~schema ?(layout = Block.Row_major) ~from row_of =
  List.map
    (fun t ->
      let path = Printf.sprintf "in%d-%d.tab" from t in
      let w =
        Tablet.writer vfs ~path ~schema ~block_size:1024 ~bloom_bits_per_key:10 ~layout ()
      in
      List.iter
        (fun i ->
          let row = row_of i in
          Tablet.add_row w ~key:(Key_codec.encode_key schema row)
            ~ts:(Schema.row_ts schema row) row)
        (List.filter (fun i -> i mod 3 = t || i = 100) (List.init 300 (fun i -> from + i)));
      ignore (Tablet.finish w);
      path)
    [ 0; 1; 2 ]

let test_encoded_merge_identical () =
  let vfs = Vfs.memory () in
  let inputs = write_interleaved vfs ~schema ~from:0 mk_row in
  let copied = merge_tablets vfs ~schema ~encoded:true inputs "enc.tab" in
  let decoded = merge_tablets vfs ~schema ~encoded:false inputs "dec.tab" in
  Alcotest.(check bool) "byte-identical tablet" true (String.equal copied decoded);
  let r = Tablet.open_reader vfs ~path:"enc.tab" ~into:schema in
  Alcotest.(check int) "rows (duplicate shadowed)" 300 (Tablet.summary r).Tablet.row_count;
  Tablet.close r

(* Sources under older schemas and a columnar source re-encode per row;
   the output, row- or column-major, still matches the decoded path. *)
let test_encoded_merge_translated () =
  let vfs = Vfs.memory () in
  let s2 =
    Schema.add_column schema
      { Schema.name = "drops"; ctype = Value.T_int32; default = Value.Int32 7l }
  in
  let s3 = Schema.widen_column s2 "drops" in
  let old = write_interleaved vfs ~schema ~from:0 mk_row in
  let mid =
    write_interleaved vfs ~schema:s2 ~from:1000 (fun i ->
        Array.append (mk_row i) [| Value.Int32 (Int32.of_int i) |])
  in
  let col =
    write_interleaved vfs ~schema:s3 ~layout:Block.Col_major ~from:2000 (fun i ->
        Array.append (mk_row i) [| Value.Int64 (Int64.of_int i) |])
  in
  let inputs = old @ mid @ col in
  List.iter
    (fun layout ->
      let copied = merge_tablets vfs ~schema:s3 ~layout ~encoded:true inputs "enc.tab" in
      let decoded = merge_tablets vfs ~schema:s3 ~layout ~encoded:false inputs "dec.tab" in
      Alcotest.(check bool) "byte-identical tablet" true (String.equal copied decoded);
      let r = Tablet.open_reader vfs ~path:"enc.tab" ~into:s3 in
      Alcotest.(check int) "all rows" 900 (Tablet.summary r).Tablet.row_count;
      Tablet.close r)
    [ Block.Row_major; Block.Col_major ]

(* ---- Descriptor ------------------------------------------------------ *)

let meta id =
  Descriptor.
    {
      id;
      file = Descriptor.tablet_file id;
      min_ts = Int64.of_int (id * 100);
      max_ts = Int64.of_int ((id * 100) + 99);
      min_key = "a";
      max_key = "z";
      row_count = 42;
      size = 1000 + id;
      columnar = id mod 2 = 1;
    }

let test_descriptor_roundtrip () =
  let vfs = Vfs.memory () in
  Vfs.mkdir_p vfs "tbl";
  let d =
    Descriptor.
      { schema; ttl = Some 123L; next_id = 7; tablets = [ meta 3; meta 1; meta 2 ] }
  in
  Descriptor.save vfs ~dir:"tbl" d;
  Alcotest.(check bool) "exists" true (Descriptor.exists vfs ~dir:"tbl");
  let d' = Descriptor.load vfs ~dir:"tbl" in
  Alcotest.(check bool) "schema" true (Schema.equal schema d'.Descriptor.schema);
  Alcotest.(check bool) "ttl" true (d'.Descriptor.ttl = Some 123L);
  Alcotest.(check int) "next_id" 7 d'.Descriptor.next_id;
  Alcotest.(check (list int)) "normalized order" [ 1; 2; 3 ]
    (List.map (fun m -> m.Descriptor.id) d'.Descriptor.tablets)

let test_descriptor_atomic_replace () =
  let vfs = Vfs.memory () in
  Vfs.mkdir_p vfs "tbl";
  Descriptor.save vfs ~dir:"tbl" Descriptor.{ schema; ttl = None; next_id = 1; tablets = [] };
  Descriptor.save vfs ~dir:"tbl" Descriptor.{ schema; ttl = None; next_id = 9; tablets = [ meta 1 ] };
  let d = Descriptor.load vfs ~dir:"tbl" in
  Alcotest.(check int) "latest wins" 9 d.Descriptor.next_id;
  (* The temp file does not linger. *)
  Alcotest.(check (list string)) "only DESCRIPTOR" [ "DESCRIPTOR" ] (Vfs.readdir vfs "tbl")

let test_descriptor_corruption () =
  let vfs = Vfs.memory () in
  Vfs.mkdir_p vfs "tbl";
  Descriptor.save vfs ~dir:"tbl" Descriptor.{ schema; ttl = None; next_id = 1; tablets = [] };
  let raw = Vfs.read_all vfs "tbl/DESCRIPTOR" in
  let b = Bytes.of_string raw in
  Bytes.set b 20 '\xff';
  let f = Vfs.create vfs "tbl/DESCRIPTOR" in
  Vfs.append vfs f (Bytes.to_string b);
  Vfs.close vfs f;
  match Descriptor.load vfs ~dir:"tbl" with
  | (_ : Descriptor.t) -> Alcotest.fail "corruption missed"
  | exception Lt_util.Binio.Corrupt _ -> ()

let suite =
  [
    ("block roundtrip", `Quick, test_block_roundtrip);
    ("block ordering enforced", `Quick, test_block_ordering_enforced);
    ("block binary search", `Quick, test_block_search);
    ("block raw size tracking", `Quick, test_block_raw_size_tracks);
    ("tablet write/read roundtrip", `Quick, test_write_read_roundtrip);
    ("tablet iter bounds", `Quick, test_iter_bounds);
    ("tablet bloom prefixes", `Quick, test_bloom_prefixes);
    ("tablet without bloom", `Quick, test_no_bloom);
    ("empty tablet rejected", `Quick, test_empty_tablet_rejected);
    ("tablet abandon", `Quick, test_abandon);
    ("schema translation on read", `Quick, test_schema_translation_on_read);
    ("corruption detected", `Quick, test_corruption_detected);
    ("values larger than blocks", `Quick, test_large_values);
    ("encoded merge matches decoded", `Quick, test_encoded_merge_identical);
    ("encoded merge translates sources", `Quick, test_encoded_merge_translated);
    ("descriptor roundtrip", `Quick, test_descriptor_roundtrip);
    ("descriptor atomic replace", `Quick, test_descriptor_atomic_replace);
    ("descriptor corruption", `Quick, test_descriptor_corruption);
  ]
