(* Encoded replies against decoded queries. A query reply carries its
   rows as key bytes and value encodings ([Row_page]); these tests hold
   it to the in-process decoded [Table.query] row for row — over a
   single-node server and through a router — across the row sources a
   page is built from: verbatim row-major blocks, memtable rows encoded
   at the stream, tablets written under older schemas (re-encoded) and
   columnar blocks, ascending and descending, paged past the server
   cap, with and without parallel scans. *)

open Littletable
open Lt_net
module Cluster_client = Lt_cluster.Cluster_client
module Placement = Lt_cluster.Placement
module Router = Lt_cluster.Router

let row_limit = 8

let base_schema () =
  let col name ctype default = { Schema.name; ctype; default } in
  Schema.create
    ~columns:
      [
        col "network" Value.T_int64 (Value.Int64 0L);
        col "device" Value.T_string (Value.String "");
        col "ts" Value.T_timestamp (Value.Timestamp 0L);
        col "cnt" Value.T_int32 (Value.Int32 0l);
        col "rate" Value.T_double (Value.Double 0.0);
      ]
    ~pkey:[ "network"; "device"; "ts" ]

let note = { Schema.name = "note"; ctype = Value.T_string; default = Value.String "-" }

(* A row under whatever the schema is now: the value of each column
   follows its name and current type. Timestamps lie before the test
   clock, so [columnar_age = 0] ages every row. *)
let row_for schema ~net ~dev ~k =
  let ts = Int64.sub Support.ts0 (Int64.of_int (k * 3_600_000_000)) in
  Array.map
    (fun c ->
      match (c.Schema.name, c.Schema.ctype) with
      | "network", _ -> Value.Int64 (Int64.of_int net)
      | "device", _ -> Value.String (Printf.sprintf "dev\x00%d" dev)
      | "ts", _ -> Value.Timestamp ts
      | _, Value.T_int32 -> Value.Int32 (Int32.of_int ((net * 100) + dev - k))
      | _, Value.T_int64 -> Value.Int64 (Int64.of_int ((net * 100) + dev - k))
      | _, Value.T_double -> Value.Double (float_of_int k /. 3.0)
      | _, Value.T_timestamp -> Value.Timestamp ts
      | _, (Value.T_string | Value.T_blob) -> Value.String (Printf.sprintf "n%d" k))
    (Schema.columns schema)

let batch schema ~nets ~devs =
  List.concat_map
    (fun net ->
      List.concat_map
        (fun dev -> List.init 5 (fun k -> row_for schema ~net ~dev ~k:(k + 1)))
        devs)
    nets

let query_shapes schema =
  let open Query in
  let net n = Value.Int64 (Int64.of_int n) in
  [
    ("all", all);
    ("all desc", with_direction Desc all);
    ("limit 5", with_limit 5 all);
    ("limit 20 desc", with_limit 20 (with_direction Desc all));
    ("prefix", prefix [ net 3 ]);
    ("prefix desc", with_direction Desc (prefix [ net 3 ]));
    ("prefix + device", prefix [ net 2; Value.String "dev\x002" ]);
    ( "ts band",
      between
        ~ts_min:(Int64.sub Support.ts0 14_400_000_000L)
        ~ts_max:(Int64.sub Support.ts0 7_200_000_000L)
        all );
    ("key range", { all with key_low = Incl [ net 2 ]; key_high = Excl [ net 4 ] });
    ( "projection",
      with_projection [ 0; 2; Option.get (Schema.find_column schema "cnt") ] all );
  ]

(* One table whose rows come from every source a page is built from:
   tablets under the first schema, tablets after [add_column], and
   memtable rows after [widen_column]. With [columnar], each flush is
   merged into column-major tablets before the schema moves on. *)
let load db ~columnar =
  let tbl = Db.create_table db "t" (base_schema ()) ~ttl:None in
  let settle () =
    Table.flush_all tbl;
    if columnar then
      while Table.merge_step tbl do
        ()
      done
  in
  Table.insert tbl (batch (Table.schema tbl) ~nets:[ 1; 2; 3; 4 ] ~devs:[ 1; 2; 3 ]);
  settle ();
  Table.add_column tbl note;
  Table.insert tbl (batch (Table.schema tbl) ~nets:[ 1; 2; 3; 4 ] ~devs:[ 4; 5 ]);
  settle ();
  Table.widen_column tbl "cnt";
  Table.insert tbl (batch (Table.schema tbl) ~nets:[ 2; 3 ] ~devs:[ 6 ]);
  tbl

let all_rows tbl q = Cursor.rows (Table.query_iter tbl q)

let check_against_table name ~client ~db tbl q =
  let page = Client.query_page client "t" q in
  let r = Table.query tbl q in
  Alcotest.(check bool) (name ^ ": page rows = Table.query") true
    (page.Client.rows = r.Table.rows);
  Alcotest.(check bool) (name ^ ": more_available = Table.query")
    r.Table.more_available page.Client.more_available;
  Alcotest.(check bool) (name ^ ": paged-through rows = query_iter") true
    (Client.query_all client "t" q = all_rows tbl q);
  match db with
  | None -> ()
  | Some db -> (
      let req = Protocol.Query { table = "t"; query = q; profile = false } in
      match (Server.handle_wire db req, Server.handle db req) with
      | Protocol.Row_page { page; _ }, Protocol.Row_batch { rows; _ } ->
          Alcotest.(check bool) (name ^ ": wire page decodes to Row_batch") true
            (Row_page.rows page = rows)
      | _ -> Alcotest.fail (name ^ ": unexpected in-process replies"))

let single_node ~columnar ~domains () =
  let config =
    Config.make ~server_row_limit:row_limit ~query_domains:domains
      ~columnar_age:(if columnar then 0L else Int64.max_int)
      ~merge_delay:0L ()
  in
  let db, _, _ = Support.fresh_db ~config () in
  let tbl = load db ~columnar in
  if columnar then
    Alcotest.(check bool) "columnar tablets present" true
      (List.exists (fun m -> m.Descriptor.columnar) (Table.tablets tbl));
  Alcotest.(check bool) "memtable rows present" true (Table.memtable_count tbl > 0);
  let server = Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () ->
      let client = Client.connect ~port:(Server.port server) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          Alcotest.(check bool) "scan longer than the server cap" true
            (List.length (all_rows tbl Query.all) > 4 * row_limit);
          List.iter
            (fun (name, q) -> check_against_table name ~client ~db:(Some db) tbl q)
            (query_shapes (Table.schema tbl))))

(* Three shard servers behind a router, and an in-process reference
   table loaded with the same rows. Then [add_column] and
   [widen_column] reach the reference and every shard but [lagging], as
   when a schema change is part-way through its rollout: the lagging
   shard's pages are under the old schema and the router must translate
   them so that one reply has one schema. *)
let routed_with_lagging_shard ~lagging () =
  let config = Config.make ~server_row_limit:row_limit () in
  let shard_dbs = List.init 3 (fun _ -> let db, _, _ = Support.fresh_db ~config () in db) in
  let servers =
    List.map (fun db -> Server.start ~maintenance_period_s:0.0 ~db ~port:0 ()) shard_dbs
  in
  let cluster =
    Cluster_client.create
      ~backends:
        (List.map
           (fun s -> { Cluster_client.host = "127.0.0.1"; port = Server.port s })
           servers)
      ()
  in
  let placement = Placement.create ~shards:3 ~policy:(Placement.Hash { vnodes = 64 }) in
  let router = Router.create ~row_limit ~placement ~cluster () in
  let rserver = Server.start_custom ~backend:(Router.backend router) ~port:0 () in
  let ref_db, _, _ = Support.fresh_db ~config () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop rserver;
      List.iter Server.stop servers)
    (fun () ->
      let client = Client.connect ~port:(Server.port rserver) () in
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          let schema = base_schema () in
          Client.create_table client "t" schema ~ttl:None;
          let ref_tbl = Db.create_table ref_db "t" schema ~ttl:None in
          let rows = batch schema ~nets:(List.init 12 succ) ~devs:[ 1; 2 ] in
          Client.insert client "t" rows;
          Table.insert ref_tbl rows;
          (* Part of the data on disk, part in memtables. *)
          List.iter Db.flush_all (ref_db :: shard_dbs);
          let late = batch schema ~nets:(List.init 12 succ) ~devs:[ 3 ] in
          Client.insert client "t" late;
          Table.insert ref_tbl late;
          let evolve db =
            let tbl = Db.table db "t" in
            Table.add_column tbl note;
            Table.widen_column tbl "cnt"
          in
          List.iteri (fun i db -> if i <> lagging then evolve db) shard_dbs;
          evolve ref_db;
          let lag_rows = all_rows (Db.table (List.nth shard_dbs lagging) "t") Query.all in
          Alcotest.(check bool) "lagging shard holds rows" true (lag_rows <> []);
          Alcotest.(check int) "lagging shard still on the old schema"
            (Array.length (Schema.columns schema))
            (Array.length (List.hd lag_rows));
          List.iter
            (fun (name, q) ->
              check_against_table ("routed " ^ name) ~client ~db:None ref_tbl q)
            (query_shapes (Table.schema ref_tbl))))

let suite =
  [
    ("row-major + memtable + evolved schemas", `Quick,
      single_node ~columnar:false ~domains:0);
    ("row-major, query_domains 2", `Quick, single_node ~columnar:false ~domains:2);
    ("columnar tablets", `Quick, single_node ~columnar:true ~domains:0);
    ("columnar tablets, query_domains 2", `Quick, single_node ~columnar:true ~domains:2);
    ("routed: last shard's schema lags", `Quick, routed_with_lagging_shard ~lagging:2);
    ("routed: first shard's schema lags", `Quick, routed_with_lagging_shard ~lagging:0);
  ]
