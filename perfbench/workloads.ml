(* The three workloads. Each drives the real stack (Stack) with one
   generator thread and one client connection; inputs come from Gen
   and are generated outside every timed interval. See README.md for
   why each workload exists and how it is sized. *)

open Littletable
module Client = Lt_net.Client
module Protocol = Lt_net.Protocol
module Clock = Lt_util.Clock
module Xorshift = Lt_util.Xorshift

(* [rate]: the dashboard's request rate when given; 0 runs it as a
   closed loop, which measures the rate the stack saturates at. *)
type env = { seed : int64; seconds : float; traced : bool; rate : float option }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  e2e : (string * float * string) list;
  layers : (string * float * string) list;
  spans : (Spans.span array * int array * float array) option;
  meta : (string * string) list;
}

let now = Unix.gettimeofday
let setups = 3
let load_batch = 1024

(* The paper's disk: 7,200 RPM, ~8 ms seek, 120 MB/s (§5.1.1). The drive
   cache is scaled down with the datasets, from 64 MiB to 1 MiB. *)
let disk_config = Lt_vfs.Disk_model.config ~cache_bytes:(1 lsl 20) ()
let disk_peak_bytes_per_s = 120e6

(* The default scan-worker count depends on the machine's cores; pin it
   to the two-core value so every machine runs the same code path. *)
let query_domains = 1

(* Run [setup] [setups] times, tearing down all but the last; returns
   the last with the median setup seconds. The caller generates the
   rows [setup] loads beforehand, so the timer covers stack start, load
   and warm-up only. Each set-up and the measured phase start from a
   compacted heap, so no run inherits another's garbage. *)
let repeated_setup setup teardown =
  let rec go i acc =
    Gc.compact ();
    let t0 = now () in
    let st = setup () in
    let acc = (now () -. t0) :: acc in
    if i = setups then begin
      Gc.compact ();
      (st, Stat.median acc)
    end
    else begin
      teardown st;
      go (i + 1) acc
    end
  in
  go 1 []

let failures_logged = ref 0

let log_failure what ex =
  incr failures_logged;
  if !failures_logged <= 5 then Printf.eprintf "ltbench: %s failed: %s\n%!" what (Printexc.to_string ex)

(* Whether op [id] of a traced run is traced: a seeded coin flip, so
   the traced half cannot line up with a workload's schedule (every
   16th poll running maintenance, every 4th scan op a full scan). The
   untraced half gives the tracing overhead. *)
let traced_op env id =
  env.traced && Int64.logand (Gen.mix64 (Int64.logxor (Gen.mix64 env.seed) (Int64.of_int id))) 1L = 0L

(* Run one op; [f] returns rows moved and can read [!Spans.active] to
   learn whether the op is traced. *)
let run_op env ~id ~kind ~due f =
  let traced = traced_op env id in
  Spans.current_op := id;
  Spans.active := traced;
  let s = now () in
  let rows, ok =
    match f () with
    | r -> (r, true)
    | exception ex ->
        log_failure kind ex;
        (0, false)
  in
  let e = now () in
  Spans.record ~layer:"op" ~kind s e;
  Spans.active := false;
  ({ Layers.kind; due; s; e; traced; rows }, ok)

let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let latencies ops pred = List.filter_map (fun o -> if pred o then Some (Layers.latency o *. 1000.0) else None) ops

(* Per op kind: count and median service time (from send to reply). *)
let kind_summary ops =
  let kinds = List.sort_uniq compare (List.map (fun o -> o.Layers.kind) ops) in
  List.concat_map
    (fun k ->
      let l = List.filter (fun o -> o.Layers.kind = k) ops in
      [ ("ops." ^ k, string_of_int (List.length l));
        ("service_p50_ms." ^ k,
          Printf.sprintf "%.3f" (Stat.median (List.map (fun o -> Layers.service o *. 1000.0) l))) ])
    kinds

(* End-to-end metrics common to every workload. [main] selects the ops
   behind op_p50_ms/op_tail_ms and [fan] those behind fanout_tail_ms, a
   kind of op that touches every shard; each selection is one kind of
   op, so no percentile sits on the boundary between two kinds. Each
   workload fixes its tail levels so that every run reports the same
   level with tens of samples beyond it. *)
let e2e ~op_tail ~fan_tail ~setup_s ~ops ~main ~fan ~rows ~wall ~disk_s ~stored_ratio ~user_bytes =
  let lat = latencies ops main and fan = latencies ops fan in
  let m name unit v = (name, v, unit) in
  ( [ m "setup_s" "s" setup_s;
      m "rows_per_s" "rows/s" (float_of_int rows /. wall);
      m "op_p50_ms" "ms" (Stat.pct lat 0.5);
      m "op_tail_ms" "ms" (Stat.pct lat op_tail);
      m "fanout_tail_ms" "ms" (Stat.pct fan fan_tail);
      m "heap_peak_mb" "MB" (heap_peak_mb ());
      m "disk_peak_frac" "ratio"
        (user_bytes /. float_of_int Stack.shard_count /. Float.max wall disk_s /. disk_peak_bytes_per_s);
      m "bytes_stored_per_user_byte" "ratio" stored_ratio ],
    kind_summary ops
    @ [ ("op_samples", string_of_int (List.length lat));
        ("op_tail_level", Printf.sprintf "%g" op_tail);
        ("fanout_samples", string_of_int (List.length fan));
        ("fanout_tail_level", Printf.sprintf "%g" fan_tail) ] )

let finish_layers env phase =
  if env.traced then
    let spans, layers = Layers.compute phase in
    (layers, Some spans)
  else ([], None)

let encode_rows rows =
  List.map (fun r -> Key_codec.encode_key Gen.schema r ^ Row_codec.encode_value Gen.schema r) rows

(* ---- ingest ------------------------------------------------------------- *)

(* Grabber polls in a closed loop. Poll p carries every device of one
   group of networks at simulated time base + p * step; the shard DBs'
   clock is set to that time before the poll, and every
   [maint_every]-th poll also runs Db.maintenance on each shard, inside
   the op, so merge stalls land in the poll latency. *)
module Ingest = struct
  let nets_per_group = 32
  let groups = 8
  let rows_per_poll = nets_per_group * Gen.devices_per_network
  let step = Clock.of_float_s 7.5
  let ttl = Clock.hour
  let maint_every = 16
  let warmup_polls = 320
  let chunk = 64

  (* Fig. 3 scaling: 16 MB flushes -> 1 MB, 128 MB tablets -> 8 MB, 90 s
     merge delay -> 60 s of simulated time (8 polls). *)
  let config =
    Config.make ~query_domains ~flush_size:(1 lsl 20) ~max_tablet_size:(8 lsl 20)
      ~merge_delay:(Clock.sec 60) ()

  let poll_ts p = Int64.add Gen.base_ts (Int64.mul (Int64.of_int p) step)

  let poll_rows ~seed p =
    let g = p mod groups in
    let ts = poll_ts p in
    List.concat
      (List.init nets_per_group (fun k ->
           let net = Int64.of_int ((g * nets_per_group) + k + 1) in
           List.init Gen.devices_per_network (fun d ->
               Gen.row ~seed ~net ~dev:(Int64.of_int (d + 1)) ~ts)))

  (* Polls whose rows the TTL still shows once poll [last] is the newest. *)
  let live_polls last = min (last + 1) (Int64.to_int (Int64.div ttl step) + 1)

  type state = {
    stack : Stack.t;
    clock : Clock.t;
    mutable next : int;
    mutable maint : float list;
    mutable stored : float list;
  }

  let maintenance st =
    Array.iteri
      (fun i sh ->
        let s = now () in
        Spans.timed ~layer:"maintenance" ~kind:"maintenance" ~shard:i (fun () ->
            Db.maintenance sh.Stack.db);
        st.maint <- (now () -. s) :: st.maint)
      st.stack.Stack.shards

  let poll st rows =
    let p = st.next in
    st.next <- p + 1;
    Clock.set st.clock (poll_ts p);
    Stack.insert st.stack rows;
    if st.next mod maint_every = 0 then maintenance st;
    List.length rows

  let stored_ratio st =
    let disk = Array.fold_left (fun a sh -> a + Table.disk_size (Db.table sh.Stack.db Gen.table)) 0 st.stack.Stack.shards in
    float_of_int disk /. float_of_int (live_polls (st.next - 1) * rows_per_poll * Gen.row_bytes)

  let setup env warm () =
    let clock = Clock.manual ~start:Gen.base_ts () in
    let stack = Stack.start ~traced:env.traced ~config ~clock ~disk_config () in
    Stack.create_table stack ~ttl:(Some ttl);
    let st = { stack; clock; next = 0; maint = []; stored = [] } in
    Array.iter (fun rows -> ignore (poll st rows)) warm;
    st.maint <- [];
    st

  (* Read everything back; compare count, digest and key order with the
     rows the generator says the TTL still shows. *)
  let check env st =
    let last = st.next - 1 in
    let want = Gen.check_create () in
    for p = last - live_polls last + 1 to last do
      List.iter (Gen.check_add want) (poll_rows ~seed:env.seed p)
    done;
    let got = Gen.check_create () in
    let it = Client.query_iter st.stack.Stack.client Gen.table Query.all in
    let rec drain () = match it () with Some r -> Gen.check_add got r; drain () | None -> () in
    drain ();
    let ok = got.Gen.ordered && got.Gen.n = want.Gen.n && got.Gen.digest = want.Gen.digest in
    if not ok then
      Printf.eprintf "ltbench: ingest read-back mismatch: rows %d (want %d), ordered %b, digest %s\n%!"
        got.Gen.n want.Gen.n got.Gen.ordered
        (if got.Gen.digest = want.Gen.digest then "ok" else "differs");
    ok

  let run env =
    let warm = Array.init warmup_polls (poll_rows ~seed:env.seed) in
    let st, setup_s = repeated_setup (setup env warm) (fun st -> Stack.stop st.stack) in
    let sql = Layers.sql_acc () in
    Spans.reset ();
    Stack.reset_disk st.stack;
    let c0 = Stack.counters st.stack in
    let ops = ref [] and failed = ref 0 and timed = ref 0.0 and rows = ref 0 in
    let id = ref 0 in
    while !timed < env.seconds do
      let first = st.next in
      let batch = Array.init chunk (fun k -> poll_rows ~seed:env.seed (first + k)) in
      Array.iter
        (fun prows ->
          if !timed < env.seconds then begin
            let maint_poll = (st.next + 1) mod maint_every = 0 in
            let o, ok = run_op env ~id:!id ~kind:"poll" ~due:(now ()) (fun () -> poll st prows) in
            incr id;
            ops := o :: !ops;
            timed := !timed +. Layers.service o;
            if ok then rows := !rows + o.Layers.rows else incr failed;
            if maint_poll then st.stored <- stored_ratio st :: st.stored
          end)
        batch
    done;
    let c1 = Stack.counters st.stack in
    let disk_s = Stack.disk_max_s st.stack in
    let user_bytes = float_of_int (!rows * Gen.row_bytes) in
    let e2e, meta =
      (* 2,000+ polls a run: p99 has 20+ beyond it. *)
      e2e ~op_tail:0.99 ~fan_tail:0.99 ~setup_s ~ops:!ops ~main:(fun _ -> true) ~fan:(fun _ -> true)
        ~rows:!rows ~wall:!timed ~disk_s ~stored_ratio:(Stat.mean st.stored) ~user_bytes
    in
    let layers, spans =
      finish_layers env
        { Layers.stack = st.stack; c0; c1; ops = !ops; wall = !timed; rows = !rows;
          user_bytes_in = user_bytes; maint = st.maint; sql }
    in
    let ok = (try check env st with ex -> log_failure "ingest read-back" ex; false) in
    Stack.stop st.stack;
    let attempted = List.length !ops + 1 in
    let failed = !failed + if ok then 0 else 1 in
    { correct = failed = 0; attempted; failed; e2e; layers; spans;
      meta = meta @ [ ("polls", string_of_int (List.length !ops)); ("rows_per_poll", string_of_int rows_per_poll) ] }
end

(* ---- dashboard ---------------------------------------------------------- *)

(* Dashboard page loads in an open loop at a fixed rate over a dataset
   that fits the block cache. Each request is timed from when it was
   due; checks against the single-node reference pause the schedule. *)
module Dashboard = struct
  let networks = 64
  let samples = 96
  let step = Clock.sec 300
  (* A quarter of the rate this mix saturates the stack at: ltbench
     --rate 0 (a closed loop) reached a median of 380 req/s over seeds
     11-15 on a two-vCPU virtual machine. *)
  let rate = 95.0
  let check_every = 8
  let org_networks = 8
  let data_end = Int64.add Gen.base_ts (Int64.mul (Int64.of_int (samples - 1)) step)
  let config = Config.make ~query_domains ~merge_delay:0L ()

  type op_kind =
    | Lookback of Query.t
    | Fanout of Query.t
    | Latest of Value.t list
    | Trickle of Value.t array list

  (* The mix is stratified so every seed runs the same proportions: each
     block of [block] ops is 16 lookbacks (4 of each length), 2 fan-outs
     and 2 latest lookups in a seeded order, then one small insert. The
     seed picks the networks and devices. *)
  let block = 21

  let gen_ops ~seed n =
    let r = Gen.rng ~seed [ 0xda5L ] in
    let pick k = 1 + Xorshift.int r k in
    let int v = Value.Int64 (Int64.of_int v) in
    let query = function
      | `Lookback minutes ->
          Lookback
            (Query.between ~ts_min:(Int64.sub data_end (Clock.sec (60 * minutes)))
               (Query.prefix [ int (pick networks) ]))
      | `Fanout ->
          let first = pick (networks - org_networks + 1) in
          let q = Query.between ~ts_min:(Int64.sub data_end Clock.hour) Query.all in
          Fanout
            (Query.with_limit 50
               { q with
                 Query.key_low = Query.Incl [ int first ];
                 key_high = Query.Excl [ int (first + org_networks) ] })
      | `Latest -> Latest [ int (pick networks); int (pick Gen.devices_per_network) ]
    in
    let trickle k =
      let ts = Int64.add data_end (Clock.sec (k + 1)) in
      let net0 = (2 * k) mod networks in
      Trickle
        (List.concat_map
           (fun net ->
             List.init Gen.devices_per_network (fun d ->
                 Gen.row ~seed ~net:(Int64.of_int net) ~dev:(Int64.of_int (d + 1)) ~ts))
           [ net0 + 1; net0 + 2 ])
    in
    let blocks =
      List.init ((n + block - 1) / block) (fun k ->
          let slots =
            Array.of_list
              (List.concat_map (fun m -> List.init 4 (fun _ -> `Lookback m)) [ 60; 120; 240; 480 ]
              @ [ `Fanout; `Fanout; `Latest; `Latest ])
          in
          for i = Array.length slots - 1 downto 1 do
            let j = Xorshift.int r (i + 1) in
            let t = slots.(i) in
            slots.(i) <- slots.(j);
            slots.(j) <- t
          done;
          Array.to_list (Array.map query slots) @ [ trickle k ])
    in
    Array.sub (Array.of_list (List.concat blocks)) 0 n

  type state = { stack : Stack.t; reference : Db.t; stored : float }

  (* The single-node reference, loaded with the same rows as the stack. *)
  let reference batches =
    let db = Db.open_ ~config ~vfs:(Lt_vfs.Vfs.memory ()) ~dir:"reference" () in
    let tbl = Db.create_table db Gen.table Gen.schema ~ttl:None in
    List.iter (Table.insert tbl) batches;
    Db.flush_all db;
    db

  let setup env reference batches () =
    let stack = Stack.start ~traced:env.traced ~config ~clock:Clock.system ~disk_config () in
    Stack.create_table stack ~ttl:None;
    List.iter (Stack.insert stack) batches;
    Stack.settle stack;
    Stack.warm stack;
    let disk = (Stack.counters stack).Stack.disk_bytes in
    let n = List.fold_left (fun a b -> a + List.length b) 0 batches in
    let stored = float_of_int disk /. float_of_int (n * Gen.row_bytes) in
    { stack; reference; stored }

  let same_page st q (page : Client.page) =
    match Lt_net.Server.handle st.reference (Protocol.Query { table = Gen.table; query = q; profile = false }) with
    | Protocol.Row_batch { rows; more_available; _ } ->
        more_available = page.Client.more_available && encode_rows rows = encode_rows page.Client.rows
    | _ -> false

  let same_latest st prefix got =
    match Lt_net.Server.handle st.reference (Protocol.Latest { table = Gen.table; prefix }) with
    | Protocol.Latest_row r -> Option.map (fun r -> encode_rows [ r ]) r = Option.map (fun r -> encode_rows [ r ]) got
    | _ -> false

  let run env =
    let batches = Gen.chunks load_batch (Gen.dataset_rows ~seed:env.seed ~networks ~samples ~step) in
    let reference = reference batches in
    let st, setup_s = repeated_setup (setup env reference batches) (fun st -> Stack.stop st.stack) in
    let rate = Option.value env.rate ~default:rate in
    let closed = rate <= 0.0 in
    (* A closed loop stops at [env.seconds]; its plan is sized for a
       rate no two-vCPU run reaches. *)
    let n = int_of_float ((if closed then 2000.0 else rate) *. env.seconds) in
    let plan = gen_ops ~seed:env.seed n in
    let c = st.stack.Stack.client in
    Spans.reset ();
    Stack.reset_disk st.stack;
    let c0 = Stack.counters st.stack in
    let ops = ref [] and failed = ref 0 and checks = ref 0 and rows = ref 0 in
    let late = ref [] in
    let paused = ref 0.0 in
    let t0 = now () in
    let next = ref 0 in
    while !next < n && not (closed && now () -. t0 -. !paused >= env.seconds) do
      let i = !next in
      next := i + 1;
      let op = plan.(i) in
      let due = if closed then now () else t0 +. !paused +. (float_of_int i /. rate) in
      let wait = due -. now () in
      if wait > 0.0 then Unix.sleepf wait;
      late := (now () -. due) :: !late;
      let check = i mod check_every = 0 in
      (* Run after the op, outside its timing: the comparison with the
         reference for sampled queries, and the reference's copy of an
         insert. *)
      let verify = ref None and inserted = ref None in
      let kind, f =
        match op with
        | Lookback q | Fanout q ->
            ( (match op with Fanout _ -> "fanout" | _ -> "lookback"),
              fun () ->
                let page = Client.query_page c Gen.table q in
                if check then verify := Some (fun () -> same_page st q page);
                List.length page.Client.rows )
        | Latest prefix ->
            ( "latest",
              fun () ->
                let r = Client.latest c Gen.table prefix in
                if check then verify := Some (fun () -> same_latest st prefix r);
                match r with Some _ -> 1 | None -> 0 )
        | Trickle batch ->
            ( "insert",
              fun () ->
                Stack.insert st.stack batch;
                inserted := Some batch;
                0 )
      in
      let o, ok = run_op env ~id:i ~kind ~due f in
      ops := o :: !ops;
      rows := !rows + o.Layers.rows;
      if not ok then incr failed;
      let p0 = now () in
      Option.iter (Table.insert (Db.table st.reference Gen.table)) !inserted;
      Option.iter
        (fun same ->
          incr checks;
          if not (same ()) then begin
            incr failed;
            Printf.eprintf "ltbench: dashboard op %d (%s) differs from the single-node reference\n%!" i kind
          end)
        !verify;
      paused := !paused +. (now () -. p0)
    done;
    let wall = now () -. t0 -. !paused in
    let c1 = Stack.counters st.stack in
    let disk_s = Stack.disk_max_s st.stack in
    let is_query o = o.Layers.kind <> "insert" in
    let e2e, meta =
      (* 1,800 queries and 180 fan-outs in a 20 s run: p95 and p75 keep
         ~45+ samples beyond them. *)
      e2e ~op_tail:0.95 ~fan_tail:0.75 ~setup_s ~ops:!ops ~main:is_query
        ~fan:(fun o -> o.Layers.kind = "fanout") ~rows:!rows ~wall ~disk_s ~stored_ratio:st.stored
        ~user_bytes:(float_of_int (!rows * Gen.row_bytes))
    in
    let layers, spans =
      finish_layers env
        { Layers.stack = st.stack; c0; c1; ops = !ops; wall; rows = !rows;
          user_bytes_in = 0.0; maint = []; sql = Layers.sql_acc () }
    in
    Stack.stop st.stack;
    Db.close st.reference;
    let lateness = List.map (fun l -> l *. 1000.0) !late in
    { correct = !failed = 0; attempted = List.length !ops; failed = !failed; e2e; layers; spans;
      meta =
        meta
        @ [ ("rate_per_s", if closed then "closed" else Printf.sprintf "%g" rate);
            ("achieved_per_s", Printf.sprintf "%.1f" (float_of_int (List.length !ops) /. wall));
            ("checked_against_reference", string_of_int !checks);
            ("generator_late_p50_ms", Printf.sprintf "%.3f" (Stat.pct lateness 0.5));
            ("generator_late_p99_ms", Printf.sprintf "%.3f" (Stat.pct lateness 0.99));
            ("generator_late_max_ms", Printf.sprintf "%.3f" (Stat.pct lateness 1.0)) ] }
end

(* ---- scan --------------------------------------------------------------- *)

(* Aggregator reads in a closed loop over a dataset several times the
   block cache: every fourth op is a full-range scan paged through
   [more_available]; the others are SQL aggregates over a 30-minute
   window, which stream their rows to the client. *)
module Scan = struct
  let networks = 64
  let samples = 200
  let step = Clock.minute
  let window = 30
  let cache_bytes = 1 lsl 20
  let config = Config.make ~query_domains ~cache_bytes ~merge_delay:0L ()
  let rows_per_sample = networks * Gen.devices_per_network

  type totals = {
    all : Gen.check;
    sent : int64 array;  (* per sample *)
    recv : int64 array;
  }

  type state = { stack : Stack.t; totals : totals; stored : float }

  let totals rows =
    let t = { all = Gen.check_create (); sent = Array.make samples 0L; recv = Array.make samples 0L } in
    List.iter
      (fun r ->
        t.all.Gen.n <- t.all.Gen.n + 1;
        t.all.Gen.digest <- Int64.add t.all.Gen.digest (Gen.row_hash r);
        let s = Int64.to_int (Int64.div (Int64.sub (Gen.ts_of r) Gen.base_ts) step) in
        t.sent.(s) <- Int64.add t.sent.(s) (Gen.sent_of r);
        t.recv.(s) <- Int64.add t.recv.(s) (Gen.recv_of r))
      rows;
    t

  let setup env totals batches () =
    let stack = Stack.start ~traced:env.traced ~config ~clock:Clock.system ~disk_config () in
    Stack.create_table stack ~ttl:None;
    List.iter (Stack.insert stack) batches;
    Stack.settle stack;
    Stack.warm stack;
    let disk = (Stack.counters stack).Stack.disk_bytes in
    let stored = float_of_int disk /. float_of_int (totals.all.Gen.n * Gen.row_bytes) in
    { stack; totals; stored }

  let ts_of_sample s = Int64.add Gen.base_ts (Int64.mul (Int64.of_int s) step)

  let agg_sql w =
    Printf.sprintf
      "SELECT COUNT(*), SUM(bytes_sent), AVG(bytes_recv) FROM usage WHERE ts >= %Ld AND ts < %Ld"
      (ts_of_sample w) (ts_of_sample (w + window))

  let expected_agg t w =
    let sum a = Array.fold_left Int64.add 0L (Array.sub a w window) in
    let count = Int64.of_int (window * rows_per_sample) in
    [| Value.Int64 count; Value.Int64 (sum t.sent);
       Value.Double (Int64.to_float (sum t.recv) /. Int64.to_float count) |]

  let run env =
    let rows = Gen.dataset_rows ~seed:env.seed ~networks ~samples ~step in
    let totals = totals rows in
    let batches = Gen.chunks load_batch rows in
    let st, setup_s = repeated_setup (setup env totals batches) (fun st -> Stack.stop st.stack) in
    let r = Gen.rng ~seed:env.seed [ 0x5ca7L ] in
    let c = st.stack.Stack.client in
    let sql = Layers.sql_acc () in
    Spans.reset ();
    Stack.reset_disk st.stack;
    let c0 = Stack.counters st.stack in
    let ops = ref [] and failed = ref 0 and timed = ref 0.0 and rows = ref 0 in
    let id = ref 0 in
    while !timed < env.seconds do
      let i = !id in
      incr id;
      let check = ref (fun () -> true) in
      let o, ok =
        if i mod 4 = 0 then
          run_op env ~id:i ~kind:"scan" ~due:(now ()) (fun () ->
              let it = Client.query_iter c Gen.table Query.all in
              let rec drain acc n = match it () with Some r -> drain (r :: acc) (n + 1) | None -> (acc, n) in
              let rows, n = drain [] 0 in
              (* The digest runs in the check, after the op's end time. *)
              check :=
                (fun () ->
                  let got = Gen.check_create () in
                  List.iter (Gen.check_add got) (List.rev rows);
                  got.Gen.ordered && got.Gen.n = st.totals.all.Gen.n
                  && got.Gen.digest = st.totals.all.Gen.digest);
              n)
        else begin
          let w = Xorshift.int r (samples - window + 1) in
          let stmt = agg_sql w in
          run_op env ~id:i ~kind:"sql" ~due:(now ()) (fun () ->
              let traced = !Spans.active in
              let b = Client.sql_backend c in
              let b = if traced then Layers.timed_sql_backend sql b else b in
              let s = now () in
              let res = Lt_sql.Executor.execute b stmt in
              if traced then begin
                sql.Layers.exec_s <- sql.Layers.exec_s +. (now () -. s);
                sql.Layers.sql_ops <- sql.Layers.sql_ops + 1;
                match res with
                | Lt_sql.Executor.Rows { rows; _ } -> sql.Layers.results <- sql.Layers.results + List.length rows
                | _ -> ()
              end;
              check :=
                (fun () ->
                  match res with
                  | Lt_sql.Executor.Rows { rows = [ got ]; _ } -> got = expected_agg st.totals w
                  | _ -> false);
              window * rows_per_sample)
        end
      in
      ops := o :: !ops;
      timed := !timed +. Layers.service o;
      if ok then rows := !rows + o.Layers.rows else incr failed;
      if ok && not (!check ()) then begin
        incr failed;
        Printf.eprintf "ltbench: scan op %d (%s) returned a wrong result\n%!" i o.Layers.kind
      end
    done;
    let c1 = Stack.counters st.stack in
    let disk_s = Stack.disk_max_s st.stack in
    let e2e, meta =
      (* A run holds ~13 scans and ~40 aggregates: only the median has
         samples on both sides to spare. *)
      e2e ~op_tail:0.5 ~fan_tail:0.5 ~setup_s ~ops:!ops ~main:(fun o -> o.Layers.kind = "scan")
        ~fan:(fun o -> o.Layers.kind = "sql") ~rows:!rows ~wall:!timed ~disk_s
        ~stored_ratio:st.stored ~user_bytes:(float_of_int (!rows * Gen.row_bytes))
    in
    let aggs = latencies !ops (fun o -> o.Layers.kind = "sql") in
    let layers, spans =
      finish_layers env
        { Layers.stack = st.stack; c0; c1; ops = !ops; wall = !timed; rows = !rows;
          user_bytes_in = 0.0; maint = []; sql }
    in
    Stack.stop st.stack;
    { correct = !failed = 0; attempted = List.length !ops; failed = !failed; e2e; layers; spans;
      meta =
        meta
        @ [ ("agg_p50_ms", Printf.sprintf "%.3f" (Stat.pct aggs 0.5));
            ("agg_samples", string_of_int (List.length aggs));
            ("dataset_mb", Printf.sprintf "%.1f" (float_of_int (samples * rows_per_sample * Gen.row_bytes) /. 1e6));
            ("block_cache_mb", Printf.sprintf "%.1f" (float_of_int (Stack.shard_count * cache_bytes) /. 1e6)) ] }
end
