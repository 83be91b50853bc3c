(* Golden tablet bytes: a fixed-seed run of flushes, merges (same
   schema, added and widened columns, row-major and column-major output)
   and a bulk-delete rewrite on the in-memory VFS, digested file by
   file. The expected digest was recorded from the decoded-row rewrite
   path; any change to a tablet byte — block layout, value encoding,
   Bloom contents, LZ output, checksums — changes it. *)

open Littletable
module Vfs = Lt_vfs.Vfs

let expected_digest = "2367e61dcf365c34/64edc102d8ff731b"

(* FNV-1a, 64-bit. *)
let fnv_string h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  !h

let fnv_offset = 0xcbf29ce484222325L

let digest_tablets vfs h dirs =
  List.fold_left
    (fun h dir ->
      List.fold_left
        (fun h name ->
          if Filename.check_suffix name ".tab" then
            let path = Filename.concat dir name in
            fnv_string (fnv_string h path) (Vfs.read_all vfs path)
          else h)
        h (Vfs.readdir vfs dir))
    h dirs

(* Keys with escaped bytes (0x00/0x01) in both string key columns, a
   compressible counter, and an incompressible blob. *)
let event_row rng ~wave i =
  let net = Printf.sprintf "n\x00%d" (i mod 3) in
  let dev = Printf.sprintf "d\x01%02d" (i mod 7) in
  [| Value.String net; Value.String dev;
     Value.Timestamp (Int64.of_int ((wave * 100_000) + i));
     Value.Int64 (Int64.of_int (i * wave));
     Value.Blob (Lt_util.Xorshift.bytes rng (16 + Lt_util.Xorshift.int rng 48)) |]

(* [drops] is the column added at wave 3: absent before, int32 until
   wave 4 widens it to int64. *)
let usage_row rng ~wave i =
  let row =
    Support.usage_row ~network:(Int64.of_int (i mod 4))
      ~device:(Int64.of_int (i mod 11))
      ~ts:(Int64.of_int ((wave * 100_000) + i))
      ~bytes:(Lt_util.Xorshift.next rng)
      ~rate:(float_of_int i /. 8.0)
  in
  if wave < 3 then row
  else if wave = 3 then Array.append row [| Value.Int32 (Int32.of_int i) |]
  else Array.append row [| Value.Int64 (Int64.of_int (i * 1000)) |]

let drain t =
  while Table.merge_step t do () done

let run ~columnar_age =
  let config =
    Config.make ~block_size:2048 ~flush_size:(1 lsl 30) ~merge_delay:0L
      ~rollover_spread:0.0 ~query_domains:0 ~columnar_age ()
  in
  let db, _clock, vfs = Support.fresh_db ~config () in
  let rng = Lt_util.Xorshift.create 0x5eedL in
  let usage = Db.create_table db "usage" (Support.usage_schema ()) ~ttl:None in
  let events = Db.create_table db "events" (Support.event_schema ()) ~ttl:None in
  (* Every tablet alive after each step is digested, so intermediate
     merge outputs are pinned too. *)
  let digest = ref fnv_offset in
  let snap () =
    digest := digest_tablets vfs !digest [ "dbroot/usage"; "dbroot/events" ]
  in
  let drain () =
    drain usage;
    drain events;
    snap ()
  in
  let wave w n =
    Table.insert usage (List.init n (usage_row rng ~wave:w));
    Table.insert events (List.init n (event_row rng ~wave:w));
    Table.flush_all usage;
    Table.flush_all events
  in
  wave 1 300;
  wave 2 300;
  snap ();
  drain ();
  (* Schema evolution: older tablets are translated as they merge. *)
  Table.add_column usage
    { Schema.name = "drops"; ctype = Value.T_int32; default = Value.Int32 7l };
  wave 3 200;
  Table.widen_column usage "drops";
  wave 4 200;
  drain ();
  ignore (Table.delete_prefix usage [ Value.Int64 2L ]);
  ignore (Table.delete_prefix events [ Value.String "n\x001" ]);
  snap ();
  wave 5 100;
  drain ();
  Db.close db;
  Printf.sprintf "%016Lx" !digest

let test_golden () =
  let row_major = run ~columnar_age:Int64.max_int in
  let columnar = run ~columnar_age:0L in
  Alcotest.(check string) "tablet bytes unchanged" expected_digest
    (row_major ^ "/" ^ columnar)

let suite = [ Alcotest.test_case "golden tablet digest" `Quick test_golden ]
