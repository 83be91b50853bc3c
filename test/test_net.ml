open Littletable
open Lt_net

(* ---- Protocol roundtrips (no sockets) --------------------------------- *)

let roundtrip_request req =
  let b = Buffer.create 64 in
  Protocol.write_request b req;
  let cur = Lt_util.Binio.cursor (Buffer.contents b) in
  let req' = Protocol.read_request cur in
  Lt_util.Binio.expect_end cur;
  req'

let roundtrip_response resp =
  let b = Buffer.create 64 in
  Protocol.write_response b resp;
  let cur = Lt_util.Binio.cursor (Buffer.contents b) in
  let resp' = Protocol.read_response cur in
  Lt_util.Binio.expect_end cur;
  resp'

let test_protocol_requests () =
  let schema = Support.usage_schema () in
  let reqs =
    [
      Protocol.Hello 1;
      Protocol.List_tables;
      Protocol.Get_table "usage";
      Protocol.Create_table { table = "t"; schema; ttl = Some 42L };
      Protocol.Drop_table "t";
      Protocol.Insert
        {
          table = "t";
          rows =
            [
              [| Value.Int32 1l; Value.Double 2.5; Value.String "x\x00y";
                 Value.Blob "\xff"; Value.Timestamp 7L |];
            ];
        };
      Protocol.Query
        {
          table = "t";
          query =
            Query.with_limit 9
              (Query.with_direction Query.Desc
                 (Query.between ~ts_min:1L ~ts_max:2L
                    (Query.prefix [ Value.Int64 5L ])));
          profile = false;
        };
      Protocol.Query { table = "t"; query = Query.all; profile = true };
      Protocol.Latest { table = "t"; prefix = [ Value.Int64 1L; Value.String "d" ] };
      Protocol.Flush_before { table = "t"; ts = 123L };
      Protocol.Get_stats "t";
      Protocol.Get_metrics;
      Protocol.Get_metrics_snapshot;
      Protocol.Get_trace (0x0123456789abcdefL, -1L);
      Protocol.Get_slow_ops 25;
      Protocol.Get_placement;
      Protocol.Ping;
      Protocol.Insert_batch { groups = Protocol.Groups [] };
      Protocol.Insert_batch
        {
          groups =
            Protocol.Groups
              [
                ( "usage",
                  [
                    [| Value.Int64 1L; Value.Timestamp 2L |];
                    [| Value.Int64 3L; Value.Timestamp 4L |];
                  ] );
                ("events", [ [| Value.String "x\x00y"; Value.Blob "\xff" |] ]);
                ("empty", []);
              ];
        };
    ]
  in
  List.iter
    (fun req ->
      match (req, roundtrip_request req) with
      | ( Protocol.Create_table { table = t1; schema = s1; ttl = l1 },
          Protocol.Create_table { table = t2; schema = s2; ttl = l2 } ) ->
          Alcotest.(check bool) "create" true
            (t1 = t2 && Schema.equal s1 s2 && l1 = l2)
      | ( Protocol.Insert_batch { groups = g1 },
          Protocol.Insert_batch { groups = g2 } ) ->
          (* The reader deliberately captures the groups section raw
             (undecoded, for zero-copy forwarding); decoded groups must
             still match what was written. *)
          Alcotest.(check bool) "batch read back raw" true
            (match g2 with Protocol.Raw _ -> true | _ -> false);
          Alcotest.(check bool) "batch groups roundtrip" true
            (Protocol.groups_of_payload g1 = Protocol.groups_of_payload g2)
      | a, b -> Alcotest.(check bool) "request roundtrip" true (a = b))
    reqs

let sample_ctx =
  {
    Lt_obs.Trace.cx_trace_hi = 0x0123456789abcdefL;
    cx_trace_lo = -2L;
    cx_span = 77L;
    cx_parent = 3L;
  }

let sample_profile =
  {
    Lt_obs.Profile.p_plan_us = 12L;
    p_scan_us = 340L;
    p_stall_us = 5L;
    p_total_us = 400L;
    p_rows_scanned = 512;
    p_rows_returned = 8;
    p_tablets = 3;
    p_tablets_pruned = 2;
    p_bloom_skips = 0;
    p_cache_hits = 7;
    p_cache_misses = 1;
    p_blocks_footer_answered = 4;
    p_columns_decoded = 11;
    p_shards =
      [
        ("shard0", { Lt_obs.Profile.empty with Lt_obs.Profile.p_scan_us = 100L });
        ("shard1", { Lt_obs.Profile.empty with Lt_obs.Profile.p_rows_scanned = 9 });
      ];
  }

(* A page as a server builds one: each row's key bytes and value
   encoding under [schema]. *)
let page_of schema rows =
  let b = Buffer.create 64 in
  List.iter
    (fun row ->
      Row_page.add b ~key:(Key_codec.encode_key schema row)
        ~value:(Row_codec.encode_value schema row))
    rows;
  Row_page.of_string schema ~count:(List.length rows) (Buffer.contents b)

(* Same schema, count and bytes; a page read off the wire is a window
   on its frame, so the windows differ. *)
let same_page (a : Row_page.t) (b : Row_page.t) =
  Schema.equal a.schema b.schema
  && a.count = b.count
  && String.sub a.data a.off a.len = String.sub b.data b.off b.len

let sample_rows =
  [
    Support.usage_row ~network:1L ~device:2L ~ts:3L ~bytes:4L ~rate:0.5;
    Support.usage_row ~network:1L ~device:2L ~ts:(-7L) ~bytes:Int64.min_int
      ~rate:Float.infinity;
  ]

let test_protocol_responses () =
  let schema = Support.usage_schema () in
  let resps =
    [
      Protocol.Hello_ok 1;
      Protocol.Tables [ "a"; "b" ];
      Protocol.Ok;
      Protocol.Insert_ok 12;
      Protocol.Row_page
        {
          page = page_of schema sample_rows;
          more_available = true;
          scanned = 99;
          profile = None;
        };
      Protocol.Row_page
        {
          page = page_of (Support.event_schema ()) [];
          more_available = false;
          scanned = 0;
          profile = Some sample_profile;
        };
      Protocol.Latest_row None;
      Protocol.Latest_row (Some [| Value.Timestamp 5L |]);
      Protocol.Insert_partial { landed = []; message = "m" };
      Protocol.Insert_partial
        {
          landed = [ ("usage", 12); ("shard1/events", 0) ];
          message = "duplicate key (net=1)";
        };
      Protocol.Error "boom";
      Protocol.Pong;
      Protocol.Placement_info
        { pl_epoch = 0; pl_policy = "single"; pl_backends = [] };
      Protocol.Placement_info
        {
          pl_epoch = 7;
          pl_policy = "hash(vnodes=64)";
          pl_backends = [ ("127.0.0.1", 7501); ("10.1.2.3", 7502) ];
        };
      Protocol.Metrics_text "# TYPE lt_up gauge\nlt_up 1\n";
      Protocol.Slow_ops
        [
          {
            Lt_obs.Trace.sp_op = Lt_obs.Trace.Query;
            sp_table = "usage";
            sp_start_us = 17L;
            sp_duration_us = 250_000L;
            sp_scanned = 512;
            sp_returned = 3;
            sp_tablets = 4;
            sp_cache_hits = 9;
            sp_cache_misses = 2;
            sp_ctx = Some sample_ctx;
          };
          {
            Lt_obs.Trace.sp_op = Lt_obs.Trace.Merge;
            sp_table = "t2";
            sp_start_us = 0L;
            sp_duration_us = 0L;
            sp_scanned = 0;
            sp_returned = 0;
            sp_tablets = 0;
            sp_cache_hits = 0;
            sp_cache_misses = 0;
            sp_ctx = None;
          };
        ];
      Protocol.Trace_spans
        [
          {
            Lt_obs.Trace.sp_op = Lt_obs.Trace.Request;
            sp_table = "query";
            sp_start_us = 5L;
            sp_duration_us = 9L;
            sp_scanned = 1;
            sp_returned = 1;
            sp_tablets = 0;
            sp_cache_hits = 0;
            sp_cache_misses = 0;
            sp_ctx = Some sample_ctx;
          };
        ];
      Protocol.Trace_spans [];
      Protocol.Metrics_snapshot [];
      Protocol.Metrics_snapshot
        [
          {
            Lt_obs.Metrics.sn_name = "lt_rows_total";
            sn_help = "Rows.";
            sn_kind = Lt_obs.Metrics.K_counter;
            sn_bounds = [||];
            sn_children =
              [
                {
                  Lt_obs.Metrics.sn_labels = [ ("table", "usage") ];
                  sn_count = 0;
                  sn_fval = 42.;
                  sn_max = 0.;
                  sn_buckets = [||];
                };
              ];
          };
          {
            Lt_obs.Metrics.sn_name = "lt_q_seconds";
            sn_help = "Latency.";
            sn_kind = Lt_obs.Metrics.K_histogram;
            sn_bounds = [| 0.1; 1.0 |];
            sn_children =
              [
                {
                  Lt_obs.Metrics.sn_labels = [];
                  sn_count = 3;
                  sn_fval = 1.25;
                  sn_max = 1.0;
                  sn_buckets = [| 1; 1; 1 |];
                };
              ];
          };
        ];
    ]
  in
  List.iter
    (fun r ->
      let same =
        match (r, roundtrip_response r) with
        | ( Protocol.Row_page { page = a; more_available = m; scanned = n; profile = p },
            Protocol.Row_page { page = b; more_available = m'; scanned = n'; profile = p' } ) ->
            same_page a b && m = m' && n = n' && p = p'
        | r', r'' -> r' = r''
      in
      Alcotest.(check bool) "response roundtrip" true same)
    resps;
  (match roundtrip_response (List.nth resps 4) with
  | Protocol.Row_page { page; _ } ->
      Alcotest.(check bool) "page rows decode" true
        (Row_page.rows page = sample_rows)
  | _ -> Alcotest.fail "page lost");
  (* The decoded view has no wire form: one row format on the wire. *)
  match
    Protocol.write_response (Buffer.create 16)
      (Protocol.Row_batch
         { rows = sample_rows; more_available = false; scanned = 0;
           profile = None })
  with
  | () -> Alcotest.fail "Row_batch written to the wire"
  | exception Invalid_argument _ -> ()

let test_protocol_rejects_garbage () =
  (match Protocol.read_request (Lt_util.Binio.cursor "\xee") with
  | (_ : Protocol.request) -> Alcotest.fail "bad tag accepted"
  | exception Protocol.Protocol_error _ -> ());
  match Protocol.read_response (Lt_util.Binio.cursor "\xee") with
  | (_ : Protocol.response) -> Alcotest.fail "bad tag accepted"
  | exception Protocol.Protocol_error _ -> ()

(* The trace context travels as a frame-level prefix ahead of the
   tagged request body, so any request type carries it unchanged and
   its absence decodes as [None]. *)
let test_ctx_framing () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close a;
      Unix.close b)
    (fun () ->
      Protocol.send_request ~ctx:sample_ctx a Protocol.Ping;
      (match Protocol.recv_request b with
      | Some c, Protocol.Ping ->
          Alcotest.(check bool) "ctx carried" true (c = sample_ctx)
      | _ -> Alcotest.fail "ctx lost in framing");
      Protocol.send_request a (Protocol.Get_table "t");
      match Protocol.recv_request b with
      | None, Protocol.Get_table t when t = "t" -> ()
      | _ -> Alcotest.fail "absent ctx must decode as None")

(* ---- End-to-end over TCP ----------------------------------------------- *)

let with_server f =
  let dir = Filename.temp_file "lt_net_test" "" in
  Sys.remove dir;
  let config = Littletable.Config.make ~server_row_limit:8 () in
  let db = Db.open_ ~config ~dir () in
  let server = Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
  Fun.protect
    ~finally:(fun () ->
      Server.stop server;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () -> f server)

let test_server_end_to_end () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.ping c;
      Alcotest.(check (list string)) "empty" [] (Client.list_tables c);
      let schema = Support.usage_schema () in
      Client.create_table c "usage" schema ~ttl:None;
      Alcotest.(check (list string)) "created" [ "usage" ] (Client.list_tables c);
      let got_schema, ttl = Client.table_info c "usage" in
      Alcotest.(check bool) "schema" true (Schema.equal schema got_schema);
      Alcotest.(check bool) "ttl" true (ttl = None);
      (* Insert 30 rows; server pages at 8. *)
      let rows =
        List.init 30 (fun i ->
            Support.usage_row ~network:1L ~device:(Int64.of_int i)
              ~ts:(Int64.of_int (i + 1)) ~bytes:(Int64.of_int (i * 2)) ~rate:0.0)
      in
      Client.insert c "usage" rows;
      let page = Client.query_page c "usage" Query.all in
      Alcotest.(check int) "page capped" 8 (List.length page.Client.rows);
      Alcotest.(check bool) "more" true page.Client.more_available;
      let all = Client.query_all c "usage" Query.all in
      Alcotest.(check int) "paged through" 30 (List.length all);
      Alcotest.(check bool) "ordered and complete" true
        (List.map (fun r -> Support.int64_of_cell r.(1)) all
        = List.init 30 Int64.of_int);
      (* Descending pagination too. *)
      let desc = Client.query_all c "usage" (Query.with_direction Query.Desc Query.all) in
      Alcotest.(check bool) "desc" true (desc = List.rev all);
      (* Client-side limit below a page. *)
      let limited = Client.query_all c "usage" (Query.with_limit 3 Query.all) in
      Alcotest.(check int) "limit 3" 3 (List.length limited);
      (* latest. *)
      (match Client.latest c "usage" [ Value.Int64 1L ] with
      | Some row -> Alcotest.(check int64) "latest ts" 30L (Support.ts_of_cell row.(2))
      | None -> Alcotest.fail "no latest");
      (* flush_before + stats. *)
      Client.flush_before c "usage" ~ts:100L;
      let s = Client.stats c "usage" in
      Alcotest.(check int) "rows inserted" 30 s.Stats.rows_inserted;
      Alcotest.(check bool) "flushed" true (s.Stats.flushes >= 1);
      (* errors. *)
      (match Client.insert c "usage" rows with
      | () -> Alcotest.fail "duplicate batch accepted"
      | exception Client.Remote_error _ -> ());
      (match Client.table_info c "missing" with
      | (_ : Schema.t * int64 option) -> Alcotest.fail "missing table"
      | exception Client.Remote_error _ -> ());
      Client.close c)

let test_server_sql_over_wire () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      ignore
        (Client.sql c
           "CREATE TABLE ev (net STRING, dev STRING, ts TIMESTAMP, \
            id INT64, body STRING, PRIMARY KEY (net, dev, ts))");
      (match
         Client.sql c
           "INSERT INTO ev (net, dev, ts, id, body) VALUES \
            ('n1', 'd1', 10, 1, 'assoc'), ('n1', 'd1', 20, 2, 'dhcp'), \
            ('n1', 'd2', 30, 3, 'auth')"
       with
      | Lt_sql.Executor.Affected 3 -> ()
      | _ -> Alcotest.fail "insert");
      (match Client.sql c "SELECT COUNT(*) FROM ev WHERE net = 'n1' AND dev = 'd1'" with
      | Lt_sql.Executor.Rows { rows = [ [| Value.Int64 2L |] ]; _ } -> ()
      | _ -> Alcotest.fail "count");
      (match Client.sql c "SELECT dev, MAX(ts) FROM ev WHERE net = 'n1' GROUP BY dev" with
      | Lt_sql.Executor.Rows { rows; _ } -> Alcotest.(check int) "groups" 2 (List.length rows)
      | _ -> Alcotest.fail "group");
      Client.close c)

let test_multiple_clients () =
  with_server (fun server ->
      let schema = Support.usage_schema () in
      let c0 = Client.connect ~port:(Server.port server) () in
      Client.create_table c0 "usage" schema ~ttl:None;
      (* Paper §5.1.4: separate writers to separate tables; here several
         clients write to the same server concurrently. *)
      let clients = List.init 4 (fun _ -> Client.connect ~port:(Server.port server) ()) in
      let threads =
        List.mapi
          (fun w c ->
            Thread.create
              (fun () ->
                for i = 0 to 49 do
                  Client.insert c "usage"
                    [
                      Support.usage_row ~network:(Int64.of_int w)
                        ~device:(Int64.of_int i) ~ts:(Int64.of_int ((w * 1000) + i))
                        ~bytes:0L ~rate:0.0;
                    ]
                done)
              ())
          clients
      in
      List.iter Thread.join threads;
      let all = Client.query_all c0 "usage" Query.all in
      Alcotest.(check int) "all writers landed" 200 (List.length all);
      List.iter Client.close (c0 :: clients))

let test_reconnect_after_server_restart () =
  let dir = Filename.temp_file "lt_net_test" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      let db = Db.open_ ~dir () in
      let server = Server.start ~maintenance_period_s:0.0 ~db ~port:0 () in
      let port = Server.port server in
      let c = Client.connect ~port () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage"
        [ Support.usage_row ~network:1L ~device:1L ~ts:1L ~bytes:0L ~rate:0.0 ];
      (* Server goes down: the persistent connection detects it. *)
      Server.stop server;
      (match Client.ping c with
      | () -> Alcotest.fail "expected Disconnected"
      | exception Client.Disconnected -> ());
      (* Server comes back on the same port (flush happened at stop). *)
      let db2 = Db.open_ ~dir () in
      let server2 = Server.start ~maintenance_period_s:0.0 ~db:db2 ~port () in
      Client.reconnect c;
      let rows = Client.query_all c "usage" Query.all in
      Alcotest.(check int) "durable row back" 1 (List.length rows);
      Client.close c;
      Server.stop server2)

(* A v1 client hello against a v2 server must be refused at the door,
   not half-served with messages it cannot decode. *)
let test_mixed_version_hello_rejected () =
  with_server (fun server ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd
            (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port server));
          (* 1 is the first protocol; 4 is the last whose query
             replies carried tagged rows instead of pages. *)
          List.iter
            (fun v ->
              Protocol.send_request fd (Protocol.Hello v);
              match Protocol.recv_response fd with
              | Protocol.Error msg ->
                  Alcotest.(check bool) "names the version" true
                    (Support.contains ~sub:"version" msg)
              | _ -> Alcotest.failf "stale version %d accepted" v)
            [ 1; 4 ];
          (* The current version still gets through on the same socket. *)
          Protocol.send_request fd (Protocol.Hello Protocol.version);
          match Protocol.recv_response fd with
          | Protocol.Hello_ok v ->
              Alcotest.(check int) "hello_ok echoes version" Protocol.version v
          | _ -> Alcotest.fail "current version refused"))

(* Per-query profiles over the wire: explicit opt-in returns a
   breakdown, the default stays bare, and rows are identical either
   way; the sticky client-side flag accumulates for [take_profiles]. *)
let test_query_profile_over_wire () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      let rows =
        List.init 20 (fun i ->
            Support.usage_row ~network:1L ~device:(Int64.of_int i)
              ~ts:(Int64.of_int (i + 1)) ~bytes:0L ~rate:0.0)
      in
      Client.insert c "usage" rows;
      Client.flush_before c "usage" ~ts:100L;
      let page = Client.query_page ~profile:true c "usage" Query.all in
      (match page.Client.profile with
      | Some p ->
          Alcotest.(check int) "profiled rows returned" 8
            p.Lt_obs.Profile.p_rows_returned;
          Alcotest.(check bool) "profiled rows scanned" true
            (p.Lt_obs.Profile.p_rows_scanned >= 8)
      | None -> Alcotest.fail "profile requested but absent");
      let plain = Client.query_page c "usage" Query.all in
      Alcotest.(check bool) "no profile by default" true
        (plain.Client.profile = None);
      Alcotest.(check bool) "profiling leaves rows identical" true
        (plain.Client.rows = page.Client.rows);
      Client.set_profiling c true;
      let (_ : Value.t array list) = Client.query_all c "usage" Query.all in
      let ps = Client.take_profiles c in
      Alcotest.(check bool) "sticky profiling accumulates" true
        (List.length ps >= 1);
      Alcotest.(check int) "take_profiles drains" 0
        (List.length (Client.take_profiles c));
      Client.close c)

(* An obs-enabled client originates a trace per request; Get_trace on
   the server returns that request's spans — the single-node half of
   the cross-process trace tree. *)
let test_trace_fetch_over_wire () =
  with_server (fun server ->
      let obs = Lt_obs.Obs.create ~clock:Lt_util.Clock.system () in
      let c = Client.connect ~obs ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage"
        [ Support.usage_row ~network:1L ~device:1L ~ts:1L ~bytes:0L ~rate:0.0 ];
      let (_ : Value.t array list) = Client.query_all c "usage" Query.all in
      match Client.last_trace c with
      | None -> Alcotest.fail "an obs-enabled client must record its trace id"
      | Some (hi, lo) ->
          let spans = Client.trace c (hi, lo) in
          Alcotest.(check bool) "request span present" true
            (List.exists
               (fun sp -> sp.Lt_obs.Trace.sp_op = Lt_obs.Trace.Request)
               spans);
          Alcotest.(check bool) "engine query span joined the trace" true
            (List.exists
               (fun sp -> sp.Lt_obs.Trace.sp_op = Lt_obs.Trace.Query)
               spans);
          Alcotest.(check bool) "every span belongs to the trace" true
            (List.for_all
               (fun sp ->
                 match sp.Lt_obs.Trace.sp_ctx with
                 | Some cx -> Lt_obs.Trace.same_trace ~hi ~lo cx
                 | None -> false)
               spans);
          Client.close c)

(* A plain single-node server still answers Get_placement: one implicit
   shard, so router-aware clients degrade gracefully. *)
let test_single_node_placement () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      let pl = Client.placement c in
      Alcotest.(check string) "policy" "single" pl.Protocol.pl_policy;
      Alcotest.(check int) "epoch" 0 pl.Protocol.pl_epoch;
      Alcotest.(check int) "no explicit backends" 0
        (List.length pl.Protocol.pl_backends);
      Client.close c)

(* ---- Batched / buffered inserts ---------------------------------------- *)

let urow i =
  Support.usage_row ~network:1L ~device:(Int64.of_int i)
    ~ts:(Int64.of_int (i + 1)) ~bytes:(Int64.of_int i) ~rate:0.0

(* Client-side buffering: rows accumulate without a round trip and go
   out as one [Insert_batch] when the row threshold trips; an explicit
   [flush] drains the remainder. *)
let test_buffered_insert_flush_on_size () =
  with_server (fun server ->
      let c =
        Client.connect ~batch_rows:10 ~batch_interval_ms:60_000
          ~port:(Server.port server) ()
      in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      for i = 0 to 24 do
        Client.buffered_insert c "usage" [ urow i ]
      done;
      (* Thresholds tripped at rows 10 and 20; five rows still pending. *)
      Alcotest.(check int) "pending below threshold" 5 (Client.pending c);
      Alcotest.(check int) "two batches landed" 20
        (List.length (Client.query_all c "usage" Query.all));
      Client.flush c;
      Alcotest.(check int) "drained" 0 (Client.pending c);
      Client.flush c (* no-op on empty *);
      Alcotest.(check int) "all rows in" 25
        (List.length (Client.query_all c "usage" Query.all));
      Client.close c)

(* Flush-on-interval, timed by the injected clock (never the ambient
   wall clock): the deadline is set when the buffer becomes non-empty
   and checked on each call. *)
let test_buffered_insert_flush_on_interval () =
  with_server (fun server ->
      let clock = Lt_util.Clock.manual () in
      let c =
        Client.connect ~clock ~batch_rows:1_000 ~batch_interval_ms:50
          ~port:(Server.port server) ()
      in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.buffered_insert c "usage" [ urow 0 ];
      Client.buffered_insert c "usage" [ urow 1 ];
      Alcotest.(check int) "interval not up" 2 (Client.pending c);
      Lt_util.Clock.advance clock (Lt_util.Clock.msec 60);
      Client.buffered_insert c "usage" [ urow 2 ];
      Alcotest.(check int) "interval flush" 0 (Client.pending c);
      Alcotest.(check int) "all three in" 3
        (List.length (Client.query_all c "usage" Query.all));
      Client.close c)

(* The single-node partial-commit bugfix: a mid-batch duplicate leaves
   the leading rows committed, and the answer must say how many —
   previously a plain [Error] left the client unable to tell what to
   resend. *)
let test_partial_insert_reports_landed () =
  with_server (fun server ->
      let c = Client.connect ~port:(Server.port server) () in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage" [ urow 0; urow 1; urow 2 ];
      (match Client.insert c "usage" [ urow 3; urow 4; urow 1; urow 5 ] with
      | () -> Alcotest.fail "mid-batch duplicate accepted"
      | exception Client.Partial_insert (landed, msg) ->
          Alcotest.(check (list (pair string int)))
            "landed prefix named" [ ("usage", 2) ] landed;
          Alcotest.(check bool) "names the duplicate" true
            (Support.contains ~sub:"duplicate" msg));
      Alcotest.(check int) "prefix committed, remainder not" 5
        (List.length (Client.query_all c "usage" Query.all));
      (* The client resends only the remainder past the duplicate. *)
      Client.insert c "usage" [ urow 5 ];
      Alcotest.(check int) "remainder landed once" 6
        (List.length (Client.query_all c "usage" Query.all));
      (* An all-duplicate batch commits nothing: plain error. *)
      (match Client.insert c "usage" [ urow 0 ] with
      | () -> Alcotest.fail "duplicate accepted"
      | exception Client.Remote_error _ -> ());
      Client.close c)

(* A buffered flush hitting a mid-batch duplicate surfaces the same
   accounting and leaves the buffer empty — retries are the caller's,
   never implicit. *)
let test_buffered_flush_partial () =
  with_server (fun server ->
      let c =
        Client.connect ~batch_rows:1_000 ~batch_interval_ms:60_000
          ~port:(Server.port server) ()
      in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      Client.insert c "usage" [ urow 1 ];
      Client.buffered_insert c "usage" [ urow 2; urow 3; urow 1; urow 4 ];
      (match Client.flush c with
      | () -> Alcotest.fail "flush over a duplicate must fail"
      | exception Client.Partial_insert (landed, _) ->
          Alcotest.(check (list (pair string int)))
            "landed prefix named" [ ("usage", 2) ] landed);
      Alcotest.(check int) "failed flush empties the buffer" 0
        (Client.pending c);
      Client.close c)

(* The reconnect-buffer regression (SIGKILL edition): rows buffered when
   the backend dies stay in the buffer — they were never written to a
   socket — and [reconnect] delivers them exactly once; nothing is
   silently dropped, nothing replayed. The backend is the real server
   executable in its own process, so a real SIGKILL takes it down with
   no graceful shutdown. (Unix.fork is unavailable here: the test
   runner has live domains from the parallel-scan suites.) *)
let test_buffered_rows_survive_sigkill_reconnect () =
  let dir = Filename.temp_file "lt_net_test" "" in
  Sys.remove dir;
  let pidfile = Filename.temp_file "lt_net_pid" "" in
  Fun.protect
    ~finally:(fun () ->
      (match int_of_string_opt (String.trim (In_channel.with_open_text pidfile In_channel.input_all)) with
      | Some pid -> ( try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
      | None | (exception Sys_error _) -> ());
      Sys.remove pidfile;
      ignore (Sys.command (Printf.sprintf "rm -rf %s" (Filename.quote dir))))
    (fun () ->
      (* Reserve an ephemeral port, then hand it to the child. *)
      let probe = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt probe Unix.SO_REUSEADDR true;
      Unix.bind probe (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
      let port =
        match Unix.getsockname probe with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      Unix.close probe;
      let rc =
        Sys.command
          (Printf.sprintf
             "%s --dir %s --port %d --log-level quiet --query-domains 0 \
              >/dev/null 2>&1 & echo $! > %s"
             (Filename.quote "../bin/littletable_server.exe")
             (Filename.quote dir) port (Filename.quote pidfile))
      in
      Alcotest.(check int) "backend spawned" 0 rc;
      let pid =
        int_of_string
          (String.trim (In_channel.with_open_text pidfile In_channel.input_all))
      in
      let rec wait_up tries =
        match
          Client.connect ~batch_rows:1_000 ~batch_interval_ms:600_000 ~port ()
        with
        | c -> c
        | exception Client.Remote_error _ when tries > 0 ->
            Thread.delay 0.05;
            wait_up (tries - 1)
      in
      let c = wait_up 200 in
      Client.create_table c "usage" (Support.usage_schema ()) ~ttl:None;
      for i = 0 to 29 do
        Client.buffered_insert c "usage" [ urow i ]
      done;
      Alcotest.(check int) "all rows buffered, none sent" 30 (Client.pending c);
      Unix.kill pid Sys.sigkill;
      let rec wait_down tries =
        match Client.ping c with
        | () when tries > 0 ->
            Thread.delay 0.05;
            wait_down (tries - 1)
        | () -> Alcotest.fail "server survived SIGKILL"
        | exception Client.Disconnected -> ()
      in
      wait_down 200;
      Alcotest.(check int) "outage does not drop the buffer" 30
        (Client.pending c);
      (* Backend comes back on the same port with empty data (the
         SIGKILL flushed nothing; only the table descriptor reached
         disk). Reconnect must flush the pending rows exactly once.
         The client-visible disconnect can precede the kernel finishing
         teardown of the dead child's listen socket on a loaded host, so
         retry the rebind briefly instead of failing on EADDRINUSE. *)
      let db2 = Db.open_ ~dir () in
      let rec restart tries =
        match Server.start ~maintenance_period_s:0.0 ~db:db2 ~port () with
        | s -> s
        | exception Unix.Unix_error (Unix.EADDRINUSE, _, _) when tries > 0 ->
            Thread.delay 0.05;
            restart (tries - 1)
      in
      let server2 = restart 200 in
      Client.reconnect c;
      Alcotest.(check int) "reconnect flushed the buffer" 0 (Client.pending c);
      let rows = Client.query_all c "usage" Query.all in
      Alcotest.(check int) "each row exactly once" 30 (List.length rows);
      Alcotest.(check bool) "no duplicates, no losses" true
        (List.map (fun r -> Support.int64_of_cell r.(1)) rows
        = List.init 30 Int64.of_int);
      Client.close c;
      Server.stop server2)

(* Fuzz: arbitrary bytes fed to the decoders either parse or raise a
   protocol/corruption error — never crash. *)
let prop_decoders_total =
  QCheck.Test.make ~name:"protocol decoders are total" ~count:2000
    QCheck.(string_gen_of_size Gen.(int_bound 100) Gen.char)
    (fun junk ->
      let ok f =
        match f (Lt_util.Binio.cursor junk) with
        | _ -> true
        | exception (Protocol.Protocol_error _ | Lt_util.Binio.Corrupt _) -> true
        | exception Littletable.Schema.Invalid _ -> true
      in
      ok Protocol.read_request && ok Protocol.read_response)

(* Hostile pages: truncations and byte flips of valid page frames, and
   frames with implausible counts and lengths, either decode (framing
   and every row) or raise a protocol/corruption error — never another
   exception, never a hang. Seeded, so a failure replays. *)
let test_hostile_pages () =
  let schema = Support.event_schema () in
  let rows =
    List.init 6 (fun i ->
        [| Value.String (Printf.sprintf "net\x00%d" i); Value.String "dev\x01";
           Value.Timestamp (Int64.of_int (i * 1000)); Value.Int64 (Int64.of_int i);
           Value.Blob (String.make i '\xff') |])
  in
  let frame ?(profile = None) page =
    let b = Buffer.create 256 in
    Protocol.write_response b
      (Protocol.Row_page { page; more_available = true; scanned = 6; profile });
    Buffer.contents b
  in
  let valid =
    [ frame (page_of schema rows);
      frame ~profile:(Some sample_profile) (page_of schema [ List.hd rows ]);
      frame (page_of (Support.usage_schema ()) sample_rows) ]
  in
  let outcome bytes =
    match
      let cur = Lt_util.Binio.cursor bytes in
      let resp = Protocol.read_response cur in
      Lt_util.Binio.expect_end cur;
      match resp with
      | Protocol.Row_page { page; _ } -> ignore (Row_page.rows page)
      | _ -> ()
    with
    | () -> `Ok
    | exception (Protocol.Protocol_error _ | Lt_util.Binio.Corrupt _) -> `Refused
  in
  List.iter
    (fun f -> Alcotest.(check bool) "valid frame decodes" true (outcome f = `Ok))
    valid;
  let rng = Lt_util.Xorshift.create 0x5eedL in
  let refused = ref 0 and cases = ref 0 in
  let run bytes =
    incr cases;
    match outcome bytes with
    | `Refused -> incr refused
    | `Ok -> ()
    | exception e ->
        Alcotest.failf "case %d: %s escaped the decoder" !cases
          (Printexc.to_string e)
  in
  List.iter
    (fun f ->
      let n = String.length f in
      for len = 0 to n - 1 do
        run (String.sub f 0 len)
      done;
      for _ = 1 to 400 do
        let b = Bytes.of_string f in
        for _ = 1 to 1 + Lt_util.Xorshift.int rng 3 do
          Bytes.set b (Lt_util.Xorshift.int rng n)
            (Char.chr (Lt_util.Xorshift.int rng 256))
        done;
        run (Bytes.to_string b)
      done)
    valid;
  (* Implausible counts and lengths, written by hand after a valid
     schema. *)
  let forged ~count ~len body =
    let b = Buffer.create 64 in
    Lt_util.Binio.put_u8 b 5;
    Schema.encode b schema;
    Lt_util.Binio.put_varint b count;
    Lt_util.Binio.put_varint b len;
    Buffer.add_string b body;
    Lt_util.Binio.put_u8 b 0;
    Lt_util.Binio.put_varint b 0;
    Lt_util.Binio.put_u8 b 0;
    Buffer.contents b
  in
  let key = String.make 8 '\x80' in
  let entry ~klen ~vlen =
    let b = Buffer.create 32 in
    Lt_util.Binio.put_varint b klen;
    Buffer.add_string b (String.sub (key ^ key) 0 (min klen 16));
    Lt_util.Binio.put_varint b vlen;
    Buffer.contents b
  in
  List.iter run
    [ forged ~count:max_int ~len:100 (String.make 100 'x');
      forged ~count:1_000_000 ~len:10 (String.make 10 'x');
      forged ~count:1 ~len:max_int "";
      forged ~count:1 ~len:(1 lsl 40) (String.make 64 'x');
      forged ~count:2 ~len:20 (entry ~klen:8 ~vlen:0 ^ String.make 10 '\000');
      forged ~count:1 ~len:10 (entry ~klen:3 ~vlen:0 ^ "xxxxx");
      forged ~count:1 ~len:10 (entry ~klen:8 ~vlen:max_int);
      forged ~count:1 ~len:11 (entry ~klen:16 ~vlen:0);
      forged ~count:0 ~len:10 (entry ~klen:8 ~vlen:0) ];
  Alcotest.(check bool) "forged counts refused" true (!refused >= 9);
  Alcotest.(check bool) "sweep ran" true (!cases > 1000)

(* Regression: a varint overflowing to a negative count must be a
   protocol error, not Invalid_argument from Array.init/List.init. *)
let test_negative_count_rejected () =
  let junk = "\002a\128\128\128\128\128\128\128\128aaaaaa" in
  let ok f =
    match f (Lt_util.Binio.cursor junk) with
    | _ -> true
    | exception (Protocol.Protocol_error _ | Lt_util.Binio.Corrupt _) -> true
    | exception Littletable.Schema.Invalid _ -> true
  in
  Alcotest.(check bool) "negative schema column count" true
    (ok Protocol.read_request && ok Protocol.read_response)

let suite =
  [
    ("protocol request roundtrips", `Quick, test_protocol_requests);
    ("protocol response roundtrips", `Quick, test_protocol_responses);
    ("protocol rejects garbage", `Quick, test_protocol_rejects_garbage);
    ("trace ctx framing", `Quick, test_ctx_framing);
    ("server end-to-end", `Quick, test_server_end_to_end);
    ("query profile over the wire", `Quick, test_query_profile_over_wire);
    ("trace fetch over the wire", `Quick, test_trace_fetch_over_wire);
    ("sql over the wire", `Quick, test_server_sql_over_wire);
    ("multiple concurrent clients", `Quick, test_multiple_clients);
    ("reconnect after restart", `Quick, test_reconnect_after_server_restart);
    ("mixed-version hello rejected", `Quick, test_mixed_version_hello_rejected);
    ("single-node placement", `Quick, test_single_node_placement);
    ("buffered insert: flush on size", `Quick, test_buffered_insert_flush_on_size);
    ("buffered insert: flush on interval", `Quick, test_buffered_insert_flush_on_interval);
    ("partial insert reports landed rows", `Quick, test_partial_insert_reports_landed);
    ("buffered flush partial failure", `Quick, test_buffered_flush_partial);
    ( "buffered rows survive SIGKILL + reconnect",
      `Quick,
      test_buffered_rows_survive_sigkill_reconnect );
    ("negative decode counts rejected", `Quick, test_negative_count_rejected);
    ("hostile pages refused", `Quick, test_hostile_pages);
    Support.qcheck prop_decoders_total;
  ]
