(* The system under test, in one process: a Client -> a router Server
   (Router over hash Placement, 3 backends) -> 3 shard Servers over
   loopback TCP. Each shard owns a Db on a memory VFS wrapped in
   Disk_model, so disk cost is modelled and does not depend on the
   machine. Every server is started with [Server.start_custom] on its
   backend record, the code path [Server.start] takes; the traced run
   swaps each backend's [b_handle] for a timed wrapper. *)

open Littletable
module Server = Lt_net.Server
module Client = Lt_net.Client
module Protocol = Lt_net.Protocol
module Vfs = Lt_vfs.Vfs
module Disk_model = Lt_vfs.Disk_model

let shard_count = 3

type shard = {
  db : Db.t;
  model : Disk_model.t;
  fsyncs : int ref;
  server : Server.t;
}

type t = {
  shards : shard array;
  router_server : Server.t;
  client : Client.t;
}

let request_kind = function
  | Protocol.Insert_batch _ | Protocol.Insert _ -> "insert_batch"
  | Protocol.Query _ -> "query"
  | Protocol.Latest _ -> "latest"
  | _ -> "other"

let reply_rows = function Protocol.Row_batch { rows; _ } -> List.length rows | _ -> 0

let flushes db =
  match Db.find_table db Gen.table with Some t -> (Table.stats t).Stats.flushes | None -> 0

(* Timed [b_handle]: one span per call, carrying the reply's row count
   (queries) or the flushes the call ran (inserts). *)
let wrap ~layer ?(shard = -1) ?db (b : Server.backend) =
  let handle req =
    if not !Spans.active then b.Server.b_handle req
    else begin
      let kind = request_kind req in
      let f0 = match (db, kind) with Some db, "insert_batch" -> flushes db | _ -> 0 in
      let s = Spans.now () in
      let finish r =
        let e = Spans.now () in
        let aux =
          match (db, kind) with
          | Some db, "insert_batch" -> flushes db - f0
          | _ -> (match r with Some r -> reply_rows r | None -> 0)
        in
        Spans.record ~layer ~kind ~shard ~aux s e
      in
      match b.Server.b_handle req with
      | r -> finish (Some r); r
      | exception ex -> finish None; raise ex
    end
  in
  { b with Server.b_handle = handle }

let start ~traced ~config ~clock ~disk_config () =
  let shards =
    Array.init shard_count (fun i ->
        let model = Disk_model.create ~config:disk_config () in
        let fsyncs = ref 0 in
        let counted =
          Vfs.faulty
            ~should_fail:(fun ~op ~path:_ -> if op = "fsync" then incr fsyncs; false)
            (Vfs.memory ())
        in
        let db =
          Db.open_ ~config ~clock ~vfs:(Vfs.with_model model counted)
            ~dir:(Printf.sprintf "shard%d" i) ()
        in
        let backend = Server.db_backend db in
        let backend = if traced then wrap ~layer:"shard" ~shard:i ~db backend else backend in
        let server = Server.start_custom ~maintenance_period_s:0.0 ~backend ~port:0 () in
        { db; model; fsyncs; server })
  in
  (* The router is configured as littletable-server --router sets it up. *)
  let obs =
    Lt_obs.Obs.create ~trace_capacity:Config.default.Config.trace_capacity
      ~clock:Lt_util.Clock.system ()
  in
  let cluster =
    Lt_cluster.Cluster_client.create ~obs ~connect_timeout:5.0
      ~backends:
        (Array.to_list
           (Array.map
              (fun s -> { Lt_cluster.Cluster_client.host = "127.0.0.1"; port = Server.port s.server })
              shards))
      ()
  in
  let placement =
    Lt_cluster.Placement.create ~shards:shard_count
      ~policy:(Lt_cluster.Placement.Hash { vnodes = 64 })
  in
  let router =
    Lt_cluster.Router.create ~obs ~row_limit:config.Config.server_row_limit ~placement
      ~cluster ()
  in
  let backend = Lt_cluster.Router.backend router in
  let backend = if traced then wrap ~layer:"router" backend else backend in
  let router_server = Server.start_custom ~maintenance_period_s:0.0 ~backend ~port:0 () in
  (* Buffered inserts leave only on an explicit flush: one Insert_batch
     per op. *)
  let client =
    Client.connect ~batch_rows:max_int ~batch_interval_ms:3_600_000
      ~port:(Server.port router_server) ()
  in
  { shards; router_server; client }

let stop t =
  Client.close t.client;
  Server.stop t.router_server;
  Array.iter (fun s -> Server.stop s.server; Db.close s.db) t.shards

let create_table t ~ttl = Client.create_table t.client Gen.table Gen.schema ~ttl

(* One Insert_batch through the router. *)
let insert t rows =
  Client.buffered_insert t.client Gen.table rows;
  Client.flush t.client

(* Flush every shard, then merge until the policy finds nothing to do. *)
let settle t =
  Array.iter
    (fun s ->
      Db.flush_all s.db;
      let tbl = Db.table s.db Gen.table in
      while Table.merge_step tbl do () done)
    t.shards

(* Read each shard's table once, so block caches are filled before
   timing. *)
let warm t =
  Array.iter
    (fun s ->
      let src = Table.query_iter (Db.table s.db Gen.table) Query.all in
      while src () <> None do () done)
    t.shards

(* ---- Counters read at phase boundaries ---------------------------------- *)

type counters = {
  stats : Stats.snapshot;  (* summed over shards *)
  cache : Lt_cache.Block_cache.counters;  (* summed over shards *)
  block_reads : int;
  block_read_s : float;
  block_decomp : int;
  block_decomp_s : float;
  fsync_count : int;
  disk_bytes : int;  (* tablet bytes on disk, summed *)
  minor_words : float;
  promoted_words : float;
  major_words : float;
  major_collections : int;
}

let zero_cache =
  { Lt_cache.Block_cache.hits = 0; misses = 0; evictions = 0; insertions = 0;
    inserted_bytes = 0; resident_bytes = 0; resident_entries = 0 }

let add_cache (a : Lt_cache.Block_cache.counters) (b : Lt_cache.Block_cache.counters) =
  { Lt_cache.Block_cache.hits = a.hits + b.hits; misses = a.misses + b.misses;
    evictions = a.evictions + b.evictions; insertions = a.insertions + b.insertions;
    inserted_bytes = a.inserted_bytes + b.inserted_bytes;
    resident_bytes = a.resident_bytes + b.resident_bytes;
    resident_entries = a.resident_entries + b.resident_entries }

let counters t =
  let tbl s = Db.table s.db Gen.table in
  let stats =
    Array.fold_left
      (fun acc s ->
        let st = Table.stats (tbl s) in
        match acc with None -> Some st | Some a -> Some (Stats.add a st))
      None t.shards
    |> Option.get
  in
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 t.shards in
  let sumf f = Array.fold_left (fun acc s -> acc +. f s) 0.0 t.shards in
  let h f s = f (Db.obs s.db) in
  let module H = Lt_obs.Metrics.Histogram in
  let g = Gc.quick_stat () in
  { stats;
    cache =
      Array.fold_left
        (fun acc s ->
          match Db.block_cache s.db with
          | Some c -> add_cache acc (Lt_cache.Block_cache.counters c)
          | None -> acc)
        zero_cache t.shards;
    block_reads = sum (fun s -> H.count (h Lt_obs.Obs.block_read_hist s));
    block_read_s = sumf (fun s -> H.sum (h Lt_obs.Obs.block_read_hist s));
    block_decomp = sum (fun s -> H.count (h Lt_obs.Obs.block_decompress_hist s));
    block_decomp_s = sumf (fun s -> H.sum (h Lt_obs.Obs.block_decompress_hist s));
    fsync_count = sum (fun s -> !(s.fsyncs));
    disk_bytes = sum (fun s -> Table.disk_size (tbl s));
    minor_words = g.Gc.minor_words;
    promoted_words = g.Gc.promoted_words;
    major_words = g.Gc.major_words;
    major_collections = g.Gc.major_collections }

let reset_disk t = Array.iter (fun s -> Disk_model.reset s.model) t.shards

(* Modelled disk seconds of the busiest shard since [reset_disk]. *)
let disk_max_s t =
  Array.fold_left (fun m s -> Float.max m (Disk_model.elapsed_s s.model)) 0.0 t.shards
