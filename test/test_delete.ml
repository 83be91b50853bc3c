(* Bulk delete (§7's planned privacy-compliance feature): engine, SQL,
   and wire-protocol layers. *)

open Littletable
open Lt_util

let schema () = Support.usage_schema ()

let config =
  Config.make ~block_size:1024 ~flush_size:(8 * 1024) ~merge_delay:0L
    ~rollover_spread:0.0 ()

let fresh () =
  let db, clock, vfs = Support.fresh_db ~config () in
  let t = Db.create_table db "usage" (schema ()) ~ttl:None in
  (db, clock, vfs, t)

let row net dev ts =
  Support.usage_row ~network:net ~device:dev ~ts ~bytes:0L ~rate:0.0

let all_tuples t = Support.usage_tuples (Table.query t Query.all).Table.rows

let populate t =
  (* Three networks x four devices, in memtable and on disk. *)
  List.iter
    (fun net ->
      Table.insert t (List.init 4 (fun d -> row net (Int64.of_int d) (Int64.of_int (d + 1)))))
    [ 1L; 2L; 3L ];
  Table.flush_all t;
  (* A second wave stays in memtables. *)
  List.iter
    (fun net ->
      Table.insert t (List.init 4 (fun d -> row net (Int64.of_int d) (Int64.of_int (d + 100)))))
    [ 1L; 2L; 3L ]

let test_delete_network () =
  let _, _, _, t = fresh () in
  populate t;
  Alcotest.(check int) "before" 24 (List.length (all_tuples t));
  let n = Table.delete_prefix t [ Value.Int64 2L ] in
  Alcotest.(check int) "deleted count" 8 n;
  let remaining = all_tuples t in
  Alcotest.(check int) "after" 16 (List.length remaining);
  Alcotest.(check bool) "network 2 gone" true
    (List.for_all (fun (net, _, _, _) -> net <> 2L) remaining);
  (* Keys can be reinserted after deletion (no tombstone residue). *)
  Table.insert_row t (row 2L 0L 1L);
  Alcotest.(check int) "reinsert ok" 17 (List.length (all_tuples t))

let test_delete_device () =
  let _, _, _, t = fresh () in
  populate t;
  let n = Table.delete_prefix t [ Value.Int64 1L; Value.Int64 2L ] in
  Alcotest.(check int) "one device, both waves" 2 n;
  Alcotest.(check bool) "device gone" true
    (List.for_all (fun (net, dev, _, _) -> not (net = 1L && dev = 2L)) (all_tuples t))

let test_delete_single_row () =
  let _, _, _, t = fresh () in
  populate t;
  let n =
    Table.delete_prefix t [ Value.Int64 1L; Value.Int64 0L; Value.Timestamp 1L ]
  in
  Alcotest.(check int) "exactly one" 1 n;
  Alcotest.(check int) "rest intact" 23 (List.length (all_tuples t))

let test_delete_everything () =
  let _, _, _, t = fresh () in
  populate t;
  let n = Table.delete_prefix t [] in
  Alcotest.(check int) "truncated" 24 n;
  Alcotest.(check int) "empty" 0 (List.length (all_tuples t));
  Alcotest.(check int) "no tablets" 0 (Table.tablet_count t)

let test_delete_absent_prefix () =
  let _, _, _, t = fresh () in
  populate t;
  Alcotest.(check int) "nothing deleted" 0 (Table.delete_prefix t [ Value.Int64 99L ]);
  Alcotest.(check int) "all intact" 24 (List.length (all_tuples t))

let test_delete_survives_reopen () =
  let _, clock, vfs, t = fresh () in
  populate t;
  ignore (Table.delete_prefix t [ Value.Int64 2L ]);
  Table.flush_all t;
  Table.close t;
  let t2 = Table.open_ vfs ~clock ~config ~dir:"dbroot/usage" ~name:"usage" in
  let remaining = Support.usage_tuples (Table.query t2 Query.all).Table.rows in
  Alcotest.(check bool) "durable" true
    (List.for_all (fun (net, _, _, _) -> net <> 2L) remaining);
  Alcotest.(check int) "count" 16 (List.length remaining)

let test_delete_type_mismatch () =
  let _, _, _, t = fresh () in
  match Table.delete_prefix t [ Value.String "oops" ] with
  | (_ : int) -> Alcotest.fail "bad prefix type accepted"
  | exception Schema.Invalid _ -> ()

let test_delete_then_latest_and_merge () =
  let _, _, _, t = fresh () in
  populate t;
  ignore (Table.delete_prefix t [ Value.Int64 1L ]);
  Alcotest.(check bool) "latest sees deletion" true
    (Table.latest t [ Value.Int64 1L ] = None);
  (* Merging after a delete keeps the deletion. *)
  while Table.merge_step t do () done;
  Alcotest.(check bool) "still gone after merge" true
    (List.for_all (fun (net, _, _, _) -> net <> 1L) (all_tuples t))

(* Tablets meeting the range whose rows have all passed the TTL are
   removed by the delete, not left to expiry: raising or clearing the
   TTL afterwards must not bring deleted rows back. *)
let test_delete_expired_stays_deleted () =
  let _, clock, _, t = fresh () in
  Table.set_ttl t (Some Lt_util.Clock.hour);
  let ts = Support.ts0 in
  (* One tablet wholly inside network 2, one straddling networks 1-3. *)
  Table.insert t (List.init 4 (fun d -> row 2L (Int64.of_int d) ts));
  Table.flush_all t;
  Table.insert t
    (List.concat_map
       (fun net -> List.init 4 (fun d -> row net (Int64.of_int d) (Int64.succ ts)))
       [ 1L; 2L; 3L ]);
  Table.flush_all t;
  Alcotest.(check int) "two tablets" 2 (Table.tablet_count t);
  Lt_util.Clock.advance clock (Int64.mul 2L Lt_util.Clock.hour);
  (* The inside tablet counts its rows; the straddling one is removed
     unread, like a merge source past the TTL, so its rows do not. *)
  Alcotest.(check int) "deleted count" 4 (Table.delete_prefix t [ Value.Int64 2L ]);
  Alcotest.(check int) "both removed" 0 (Table.tablet_count t);
  Table.set_ttl t None;
  Alcotest.(check int) "nothing comes back" 0 (List.length (all_tuples t))

(* ---- SQL layer --------------------------------------------------------- *)

let sql_setup () =
  let db, _, _ = Support.fresh_db () in
  let b = Lt_sql.Executor.local_backend db in
  ignore
    (Lt_sql.Executor.execute b
       "CREATE TABLE usage (network INT64, device INT64, ts TIMESTAMP, \
        bytes INT64, PRIMARY KEY (network, device, ts))");
  ignore
    (Lt_sql.Executor.execute b
       "INSERT INTO usage (network, device, ts, bytes) VALUES \
        (1,1,10,5), (1,2,20,6), (2,1,30,7)");
  (b, db)

let test_sql_delete () =
  let b, _ = sql_setup () in
  (match Lt_sql.Executor.execute b "DELETE FROM usage WHERE network = 1" with
  | Lt_sql.Executor.Affected 2 -> ()
  | _ -> Alcotest.fail "expected 2 deleted");
  (match Lt_sql.Executor.execute b "SELECT COUNT(*) FROM usage" with
  | Lt_sql.Executor.Rows { rows = [ [| Value.Int64 1L |] ]; _ } -> ()
  | _ -> Alcotest.fail "one row left");
  (* Out-of-order equalities still form a prefix. *)
  (match
     Lt_sql.Executor.execute b "DELETE FROM usage WHERE device = 1 AND network = 2"
   with
  | Lt_sql.Executor.Affected 1 -> ()
  | _ -> Alcotest.fail "prefix in any order");
  (* Non-prefix or non-equality conditions are rejected. *)
  let bad sql =
    match Lt_sql.Executor.execute b sql with
    | (_ : Lt_sql.Executor.result) -> Alcotest.failf "accepted: %s" sql
    | exception Lt_sql.Executor.Exec_error _ -> ()
  in
  bad "DELETE FROM usage WHERE device = 1";
  bad "DELETE FROM usage WHERE network > 1";
  bad "DELETE FROM usage WHERE bytes = 5"

let test_sql_alter () =
  let b, db = sql_setup () in
  (match
     Lt_sql.Executor.execute b
       "ALTER TABLE usage ADD COLUMN errs INT32 DEFAULT -1"
   with
  | Lt_sql.Executor.Done _ -> ()
  | _ -> Alcotest.fail "add column");
  (match Lt_sql.Executor.execute b "SELECT errs FROM usage WHERE network = 1" with
  | Lt_sql.Executor.Rows { rows; _ } ->
      Alcotest.(check bool) "default visible" true
        (List.for_all (fun r -> r.(0) = Value.Int32 (-1l)) rows)
  | _ -> Alcotest.fail "select errs");
  (match Lt_sql.Executor.execute b "ALTER TABLE usage WIDEN COLUMN errs" with
  | Lt_sql.Executor.Done _ -> ()
  | _ -> Alcotest.fail "widen");
  (match Lt_sql.Executor.execute b "SELECT MAX(errs) FROM usage" with
  | Lt_sql.Executor.Rows { rows = [ [| Value.Int64 (-1L) |] ]; _ } -> ()
  | _ -> Alcotest.fail "widened type");
  (match Lt_sql.Executor.execute b "ALTER TABLE usage SET TTL 2 WEEKS" with
  | Lt_sql.Executor.Done _ -> ()
  | _ -> Alcotest.fail "set ttl");
  Alcotest.(check bool) "ttl applied" true
    (Table.ttl (Db.table db "usage") = Some (Int64.mul 2L Clock.week));
  (match Lt_sql.Executor.execute b "ALTER TABLE usage CLEAR TTL" with
  | Lt_sql.Executor.Done _ -> ()
  | _ -> Alcotest.fail "clear ttl");
  Alcotest.(check bool) "ttl cleared" true (Table.ttl (Db.table db "usage") = None)

(* ---- Wire protocol ------------------------------------------------------ *)

let test_net_delete_and_alter () =
  let dir = Filename.temp_file "lt_del_test" "" in
  Sys.remove dir;
  let db = Db.open_ ~dir () in
  let server = Lt_net.Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Lt_net.Server.stop server;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let c = Lt_net.Client.connect ~port:(Lt_net.Server.port server) () in
      Lt_net.Client.create_table c "usage" (schema ()) ~ttl:None;
      Lt_net.Client.insert c "usage" [ row 1L 1L 1L; row 1L 2L 2L; row 2L 1L 3L ];
      Alcotest.(check int) "remote delete" 2
        (Lt_net.Client.delete_prefix c "usage" [ Value.Int64 1L ]);
      Alcotest.(check int) "one row remains" 1
        (List.length (Lt_net.Client.query_all c "usage" Query.all));
      (* Remote schema evolution; client cache invalidated. *)
      Lt_net.Client.add_column c "usage"
        { Schema.name = "flags"; ctype = Value.T_int32; default = Value.Int32 9l };
      let s, _ = Lt_net.Client.table_info c "usage" in
      Alcotest.(check int) "new arity" 6 (Schema.column_count s);
      Lt_net.Client.widen_column c "usage" ~column:"flags";
      Lt_net.Client.set_ttl c "usage" ~ttl:(Some Clock.week);
      let _, ttl = Lt_net.Client.table_info c "usage" in
      Alcotest.(check bool) "remote ttl" true (ttl = Some Clock.week);
      (* SQL over the wire drives the same paths. *)
      (match Lt_net.Client.sql c "DELETE FROM usage WHERE network = 2" with
      | Lt_sql.Executor.Affected 1 -> ()
      | _ -> Alcotest.fail "sql delete over wire");
      Lt_net.Client.close c)

(* Randomized inserts interleaved with prefix deletes, flushes, and
   merges, cross-checked against a hashtable reference model. *)
let prop_delete_matches_reference =
  QCheck.Test.make ~name:"delete matches reference model" ~count:30
    QCheck.(list_of_size (Gen.int_range 1 80)
              (triple (int_bound 6) (int_bound 3) (int_bound 3)))
    (fun ops ->
      let _, _, _, t = fresh () in
      let reference = Hashtbl.create 64 in
      List.iteri
        (fun i (a, b, action) ->
          match action with
          | 0 | 1 ->
              (* Insert (net=a, dev=b, ts=i). *)
              let net = Int64.of_int a and dev = Int64.of_int b in
              let ts = Int64.of_int i in
              (try
                 Table.insert_row t (row net dev ts);
                 Hashtbl.replace reference (net, dev, ts) ()
               with Table.Duplicate_key _ -> ())
          | 2 ->
              (* Delete network a. *)
              let net = Int64.of_int a in
              ignore (Table.delete_prefix t [ Value.Int64 net ]);
              Hashtbl.iter
                (fun ((n, _, _) as k) () ->
                  if n = net then Hashtbl.remove reference k)
                (Hashtbl.copy reference)
          | _ ->
              if i mod 2 = 0 then Table.flush_all t
              else ignore (Table.merge_step t))
        ops;
      let got =
        List.map
          (fun (n, d, ts, _) -> (n, d, ts))
          (all_tuples t)
      in
      let expect =
        List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) reference [])
      in
      got = expect)

let suite =
  [
    ("delete a network", `Quick, test_delete_network);
    ("delete a device", `Quick, test_delete_device);
    ("delete a single row", `Quick, test_delete_single_row);
    ("delete everything (truncate)", `Quick, test_delete_everything);
    ("delete absent prefix", `Quick, test_delete_absent_prefix);
    ("delete survives reopen", `Quick, test_delete_survives_reopen);
    ("delete type mismatch", `Quick, test_delete_type_mismatch);
    ("delete then latest / merge", `Quick, test_delete_then_latest_and_merge);
    ("delete past the ttl stays deleted", `Quick, test_delete_expired_stays_deleted);
    ("sql: DELETE", `Quick, test_sql_delete);
    ("sql: ALTER TABLE", `Quick, test_sql_alter);
    ("net: delete and alter over TCP", `Quick, test_net_delete_and_alter);
    Support.qcheck prop_delete_matches_reference;
  ]
