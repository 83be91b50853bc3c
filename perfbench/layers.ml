(* Per-layer metrics of the traced run, named after the repo's modules.
   Span-derived figures cover the traced ops (about half, picked by a
   seeded coin flip); counter figures cover the whole measured phase. *)

open Littletable

type op = {
  kind : string;
  due : float;  (* when the op was due; its start in a closed loop *)
  s : float;
  e : float;
  traced : bool;
  rows : int;  (* rows acknowledged (inserts) or delivered (reads) *)
}

let latency o = o.e -. o.due
let service o = o.e -. o.s

type sql_acc = {
  mutable sql_ops : int;
  mutable exec_s : float;
  mutable fetch_s : float;
  mutable streamed : int;
  mutable results : int;
}

let sql_acc () = { sql_ops = 0; exec_s = 0.0; fetch_s = 0.0; streamed = 0; results = 0 }

(* An SQL backend whose row pulls are timed; a pull that crossed the wire
   is also recorded as a "sql.fetch" span so the router spans it
   contains find it as their parent. *)
let timed_sql_backend acc (b : Lt_sql.Executor.backend) =
  { b with
    Lt_sql.Executor.b_query =
      (fun name q ->
        let src = b.Lt_sql.Executor.b_query name q in
        fun () ->
          let before = !Spans.recorded in
          let s = Spans.now () in
          let r = src () in
          let e = Spans.now () in
          acc.fetch_s <- acc.fetch_s +. (e -. s);
          if r <> None then acc.streamed <- acc.streamed + 1;
          if !Spans.recorded <> before then
            Spans.record ~layer:"sql.fetch" ~kind:name s e;
          r) }

type phase = {
  stack : Stack.t;
  c0 : Stack.counters;
  c1 : Stack.counters;
  ops : op list;
  wall : float;  (* seconds the phase measured *)
  rows : int;
  user_bytes_in : float;  (* user bytes inserted during the phase *)
  maint : float list;  (* seconds per shard Db.maintenance call *)
  sql : sql_acc;
}

let ms s = s *. 1000.0
let mb b = float_of_int b /. 1e6
let div a b = if b = 0.0 then 0.0 else a /. b
let fdiv a b = div (float_of_int a) (float_of_int b)

let compute p =
  let spans, parent, self = Spans.finish () in
  let traced = List.filter (fun o -> o.traced) p.ops in
  let n_traced = float_of_int (List.length traced) in
  let per_op x = div x n_traced in
  let sel f = List.filter (fun i -> f spans.(i)) (List.init (Array.length spans) Fun.id) in
  let dur i = spans.(i).Spans.e -. spans.(i).Spans.s in
  let sum f l = List.fold_left (fun a i -> a +. f i) 0.0 l in
  let routers = sel (fun sp -> sp.Spans.layer = "router") in
  let shards = sel (fun sp -> sp.Spans.layer = "shard") in
  let ops_sp = sel (fun sp -> sp.Spans.layer = "op") in
  let fetches = sel (fun sp -> sp.Spans.layer = "sql.fetch") in
  let is_sql i = spans.(i).Spans.kind = "sql" in
  (* Client + wire: op self time outside SQL ops, plus SQL fetch self
     time (a fetch minus the router calls inside it). *)
  let net_self =
    sum (fun i -> self.(i)) (List.filter (fun i -> not (is_sql i)) ops_sp)
    +. sum (fun i -> self.(i)) fetches
  in
  let router_busy = sum dur routers in
  let router_self = sum (fun i -> self.(i)) routers in
  let routed_shards = List.filter (fun i -> parent.(i) >= 0 && spans.(parent.(i)).Spans.layer = "router") shards in
  let rows_of l kind = List.fold_left (fun a i -> if spans.(i).Spans.kind = kind then a + spans.(i).Spans.aux else a) 0 l in
  let handle kind =
    let l = List.filter (fun i -> spans.(i).Spans.kind = kind) shards in
    let d = List.map dur l in
    (ms (Stat.median d), ms (Stat.mean d))
  in
  let traced_service = List.fold_left (fun a o -> a +. service o) 0.0 traced in
  let busy = Array.init Stack.shard_count (fun k -> sum dur (List.filter (fun i -> spans.(i).Spans.shard = k) shards)) in
  let busy_mean = Array.fold_left ( +. ) 0.0 busy /. float_of_int Stack.shard_count in
  (* Inserts that ran no flush time the table insert path; the excess of
     the ones that did, per flush, times the flush. *)
  let inserts = List.filter (fun i -> spans.(i).Spans.kind = "insert_batch") shards in
  let plain = List.filter (fun i -> spans.(i).Spans.aux = 0) inserts in
  let flushing = List.filter (fun i -> spans.(i).Spans.aux > 0) inserts in
  let insert_mean = Stat.mean (List.map dur plain) in
  let flush_ms =
    div (sum (fun i -> dur i -. insert_mean) flushing)
      (float_of_int (List.fold_left (fun a i -> a + spans.(i).Spans.aux) 0 flushing))
  in
  let st0 = p.c0.Stack.stats and st1 = p.c1.Stack.stats in
  let d f = f st1 - f st0 in
  let c0 = p.c0 and c1 = p.c1 in
  let hits = c1.cache.hits - c0.cache.hits and misses = c1.cache.misses - c0.cache.misses in
  let module DM = Lt_vfs.Disk_model in
  let shards_a = p.stack.Stack.shards in
  let dsum f = Array.fold_left (fun a s -> a + f s.Stack.model) 0 shards_a in
  let disk_s = Stack.disk_max_s p.stack in
  let written = dsum DM.bytes_written in
  let alloc_words =
    (c1.minor_words -. c0.minor_words) +. (c1.major_words -. c0.major_words)
    -. (c1.promoted_words -. c0.promoted_words)
  in
  (* Traced against untraced median service time, over the most common
     op kind so the two halves compare like with like. *)
  let overhead =
    let count k = List.length (List.filter (fun o -> o.kind = k) p.ops) in
    let main = List.fold_left (fun b o -> if count o.kind > count b then o.kind else b) "" p.ops in
    let med tr = Stat.median (List.filter_map (fun o -> if o.kind = main && o.traced = tr then Some (service o) else None) p.ops) in
    if med false = 0.0 then 0.0 else (med true /. med false) -. 1.0
  in
  let sp, sm = handle "insert_batch" and qp, qm = handle "query" and lp, lm = handle "latest" in
  let m name unit v = (name, v, unit) in
  let spans_out = (spans, parent, self) in
  ( spans_out,
    [ m "net.self_ms" "ms" (ms (per_op net_self));
      m "net.requests_per_op" "count" (per_op (float_of_int (List.length routers)));
      m "router.busy_ms" "ms" (ms (per_op router_busy));
      m "router.self_ms" "ms" (ms (per_op router_self));
      m "router.shard_wait_ms" "ms" (ms (per_op (router_busy -. router_self)));
      m "router.fanout" "count" (fdiv (List.length routed_shards) (List.length routers));
      m "router.rows_pulled_per_returned" "ratio"
        (fdiv (rows_of routed_shards "query") (rows_of routers "query"));
      m "shard.handle_ms.insert_batch.p50" "ms" sp;
      m "shard.handle_ms.insert_batch.mean" "ms" sm;
      m "shard.handle_ms.query.p50" "ms" qp;
      m "shard.handle_ms.query.mean" "ms" qm;
      m "shard.handle_ms.latest.p50" "ms" lp;
      m "shard.handle_ms.latest.mean" "ms" lm ]
    @ List.init Stack.shard_count (fun k ->
          m (Printf.sprintf "shard.busy_frac.%d" k) "ratio" (div busy.(k) traced_service))
    @ [ m "shard.skew" "ratio" (div (Array.fold_left Float.max 0.0 busy) busy_mean);
        m "table.scanned_per_returned" "ratio"
          (fdiv (d (fun s -> s.Stats.rows_scanned)) (max 1 (d (fun s -> s.Stats.rows_returned))));
        m "table.insert_ms_mean" "ms" (ms insert_mean);
        m "table.flushes" "count" (float_of_int (d (fun s -> s.Stats.flushes)));
        m "table.flush_mb" "MB" (mb (d (fun s -> s.Stats.flushed_bytes)));
        m "table.flush_ms_mean" "ms" (ms flush_ms);
        m "table.merges" "count" (float_of_int (d (fun s -> s.Stats.merges)));
        m "table.merge_mb_in" "MB" (mb (d (fun s -> s.Stats.merged_bytes_in)));
        m "table.write_amp" "ratio" (Stats.write_amplification st1);
        m "table.maintenance_ms" "ms" (ms (Stat.mean p.maint));
        m "block.reads" "count" (float_of_int (c1.block_reads - c0.block_reads));
        m "block.reads_per_query" "count"
          (fdiv (c1.block_reads - c0.block_reads) (d (fun s -> s.Stats.queries)));
        m "block.read_ms" "ms"
          (ms (div (c1.block_read_s -. c0.block_read_s) (float_of_int (c1.block_reads - c0.block_reads))));
        m "block.decompress_ms" "ms"
          (ms (div (c1.block_decomp_s -. c0.block_decomp_s) (float_of_int (c1.block_decomp - c0.block_decomp))));
        m "cache.hit_ratio" "ratio" (fdiv hits (hits + misses));
        m "cache.evictions" "count" (float_of_int (c1.cache.evictions - c0.cache.evictions));
        m "cache.resident_mb" "MB" (mb c1.cache.resident_bytes);
        m "disk.modeled_s" "s" disk_s;
        m "disk.util" "ratio" (div disk_s p.wall);
        m "disk.seeks" "count" (float_of_int (dsum DM.seeks));
        m "disk.mb_written" "MB" (mb written);
        m "disk.mb_read" "MB" (mb (dsum DM.bytes_read));
        m "disk.write_per_user_byte" "ratio" (div (float_of_int written) p.user_bytes_in);
        m "vfs.fsyncs" "count" (float_of_int (c1.fsync_count - c0.fsync_count));
        m "sql.self_ms" "ms" (ms (div (p.sql.exec_s -. p.sql.fetch_s) (float_of_int p.sql.sql_ops)));
        m "sql.rows_streamed_per_result" "ratio" (fdiv p.sql.streamed p.sql.results);
        m "gc.alloc_bytes_per_row" "B" (div (alloc_words *. 8.0) (float_of_int p.rows));
        m "gc.major_collections" "count" (float_of_int (c1.major_collections - c0.major_collections));
        m "trace.overhead_frac" "ratio" overhead ] )
