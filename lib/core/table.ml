open Lt_util
module Vfs = Lt_vfs.Vfs
module Bcache = Lt_cache.Block_cache
module Obs = Lt_obs.Obs
module Otrace = Lt_obs.Trace
module Ometrics = Lt_obs.Metrics
module Pool = Lt_exec.Pool
module Pscan = Lt_exec.Pscan

exception Duplicate_key of string

type disk_tablet = {
  mutable meta : Descriptor.tablet_meta;
  mutable reader : Tablet.reader option;
  mutable refs : int;
  mutable doomed : bool;
  mutable last_cls : Period.class_;
  mutable eligible_at : int64;
}

(* A tablet as it enters the live set (at open or at a commit):
   unpinned, and not merge-eligible until [merge_delay] has passed. *)
let disk_tablet ~config ~now meta =
  {
    meta;
    reader = None;
    refs = 0;
    doomed = false;
    last_cls = Period.classify ~now meta.Descriptor.min_ts;
    eligible_at = Int64.add now config.Config.merge_delay;
  }

type t = {
  vfs : Vfs.t;
  clock : Clock.t;
  config : Config.t;
  dir : string;
  tname : string;
  mutable schema : Schema.t;
  mutable ttl : int64 option;
  mutable next_id : int;
  mutable filling : Memtable.t list;  (** one per active period bin *)
  mutable frozen : Memtable.t list;  (** oldest frozen first *)
  mutable disk : disk_tablet list;  (** timespan order *)
  mutable doomed_paths : string list;
      (** unreferenced tablet files awaiting deletion; guarded by
          [state]. Unlinking is blocking VFS work, so doomed files are
          only queued under the lock and actually deleted by
          [drain_doomed] outside every lock region. *)
  graph : Flush_graph.t;
  mutable last_insert_tablet : int option;
  mutable max_ts_seen : int64 option;
  mutable flush_failures : int;
      (** consecutive failed flush attempts; guarded by [writer_lock] *)
  mutable flush_retry_at : int64;
      (** no background flush retry before this time; guarded by [writer_lock] *)
  mutable commit_seq : int;
      (** bumped per acked insert batch; guarded by [state] *)
  mutable durable_seq : int;
      (** highest [commit_seq] covered by a completed explicit flush
          round; guarded by [state] *)
  mutable commit_round_active : bool;
      (** an explicit flush round is in flight; guarded by [state] *)
  commit_cond : Condition.t;
      (** waits on [state]; broadcast when a flush round ends *)
  state : Mutex.t;  (** guards all mutable fields above *)
  writer_lock : Mutex.t;  (** serializes inserts, flushes, schema changes *)
  maint_lock : Mutex.t;  (** serializes merges and expiry *)
  stats : Stats.t;
  cache : Block.t Bcache.t option;
      (** process-wide block cache, shared across the {!Db}'s tables *)
  obs : Obs.t;
  instr : Obs.table_instruments;
  pool : Pool.t option;
      (** worker pool for parallel tablet scans; [None] = sequential *)
  rng : Xorshift.t;
  mutable closed : bool;
}

let now t = Clock.now t.clock

let name t = t.tname

let dir t = t.dir

let schema t = Mutexes.with_lock t.state (fun () -> t.schema)

let ttl t = Mutexes.with_lock t.state (fun () -> t.ttl)

let stats t =
  let cache =
    Option.map
      (fun c ->
        let k = Bcache.counters c in
        {
          Stats.cache_hits = k.Bcache.hits;
          cache_misses = k.Bcache.misses;
          cache_evictions = k.Bcache.evictions;
          cache_inserted_bytes = k.Bcache.inserted_bytes;
          cache_resident_bytes = k.Bcache.resident_bytes;
        })
      t.cache
  in
  Stats.read ?cache t.stats

let tablet_path t file = Filename.concat t.dir file

(* ------------------------------------------------------------------ *)
(* Observability spans                                                 *)
(* ------------------------------------------------------------------ *)

let cache_counts t =
  match t.cache with
  | None -> (0, 0)
  | Some c ->
      let k = Bcache.counters c in
      (k.Bcache.hits, k.Bcache.misses)

(* Open a span: clock time plus the block-cache counters at entry, so
   the closing side can attribute hit/miss deltas to this operation
   (approximate under concurrent readers — see DESIGN.md). All zero
   when observability is off. *)
let obs_begin t =
  if Obs.enabled t.obs then
    let h, m = cache_counts t in
    (Clock.now t.clock, h, m)
  else (0L, 0, 0)

let obs_end t ~hist ~op ~t0 ~h0 ~m0 ?(scanned = 0) ?(returned = 0)
    ?(tablets = 0) () =
  if Obs.enabled t.obs then begin
    let h1, m1 = cache_counts t in
    Obs.record_op t.obs ~hist ~op ~table:t.tname ~t0 ~scanned ~returned
      ~tablets ~cache_hits:(h1 - h0) ~cache_misses:(m1 - m0) ()
  end

(* Per-query profile accumulator ([query ~profile]). Parallel-scan
   worker callbacks update it from pool domains, hence the mutex.
   Timed with [t.clock] directly: profiling is an explicit per-query
   opt-in and must work even when [Config.obs_enabled] is false. *)
type prof_acc = {
  pr_mutex : Mutex.t;
  pr_t0 : int64;
  pr_h0 : int; (* cache hits and misses at entry *)
  pr_m0 : int;
  mutable pr_plan_us : int64;
  mutable pr_scan_us : int64; (* summed worker busy time when staged *)
  mutable pr_stall_us : int64;
  mutable pr_staged : bool; (* parallel path taken *)
}

let prof_acc_create t =
  let pr_t0 = Clock.now t.clock in
  let pr_h0, pr_m0 = cache_counts t in
  { pr_mutex = Mutex.create ();
    pr_t0;
    pr_h0;
    pr_m0;
    pr_plan_us = 0L;
    pr_scan_us = 0L;
    pr_stall_us = 0L;
    pr_staged = false }

(* The one {!Lt_obs.Profile.t} builder, for [query] and [query_agg].
   [scan0] is when row pulling began; a staged scan reports its summed
   worker time instead. *)
let profile_of t pr ~scan0 ~scanned ~returned ~tablets ~pruned
    (counters : Tablet.scan_counters) =
  let fin = Clock.now t.clock in
  let h1, m1 = cache_counts t in
  let scan_us, stall_us =
    Mutexes.with_lock pr.pr_mutex (fun () ->
        if pr.pr_staged then (pr.pr_scan_us, pr.pr_stall_us)
        else (Int64.sub fin scan0, 0L))
  in
  { Lt_obs.Profile.p_plan_us = pr.pr_plan_us;
    p_scan_us = scan_us;
    p_stall_us = stall_us;
    p_total_us = Int64.sub fin pr.pr_t0;
    p_rows_scanned = scanned;
    p_rows_returned = returned;
    p_tablets = tablets;
    p_tablets_pruned = pruned;
    (* Blooms serve only the [latest] point-lookup path (§3.4.5); a
       range scan never consults them. *)
    p_bloom_skips = 0;
    p_cache_hits = h1 - pr.pr_h0;
    p_cache_misses = m1 - pr.pr_m0;
    p_blocks_footer_answered = Atomic.get counters.Tablet.sc_footer_blocks;
    p_columns_decoded = Atomic.get counters.Tablet.sc_cols_decoded;
    p_shards = [] }

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let seed_of_name name =
  (* Deterministic per-table randomness for merge-delay spreading. *)
  let h = ref 1469598103934665603L in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h 1099511628211L)
    name;
  !h

let make vfs ~clock ~config ~dir ~name ~desc ~cache ~obs ~pool =
  let open Descriptor in
  let disk = List.map (disk_tablet ~config ~now:(Clock.now clock)) desc.tablets in
  let max_ts_seen =
    List.fold_left
      (fun acc m ->
        match acc with
        | None -> Some m.max_ts
        | Some v -> Some (max v m.max_ts))
      None desc.tablets
  in
  {
    vfs;
    clock;
    config;
    dir;
    tname = name;
    schema = desc.schema;
    ttl = desc.ttl;
    next_id = desc.next_id;
    filling = [];
    frozen = [];
    disk;
    doomed_paths = [];
    graph = Flush_graph.create ();
    last_insert_tablet = None;
    max_ts_seen;
    flush_failures = 0;
    flush_retry_at = 0L;
    commit_seq = 0;
    durable_seq = 0;
    commit_round_active = false;
    commit_cond = Condition.create ();
    state = Mutex.create ();
    writer_lock = Mutex.create ();
    maint_lock = Mutex.create ();
    stats = Stats.create ();
    cache;
    obs;
    instr = Obs.table_instruments obs ~table:name;
    pool;
    rng = Xorshift.create (seed_of_name name);
    closed = false;
  }

let create ?cache ?(obs = Obs.noop) ?pool vfs ~clock ~config ~dir ~name schema
    ~ttl =
  Vfs.mkdir_p vfs dir;
  if Descriptor.exists vfs ~dir then
    invalid_arg (Printf.sprintf "Table.create: %s already holds a table" dir);
  let desc = Descriptor.{ schema; ttl; next_id = 1; tablets = [] } in
  Descriptor.save vfs ~dir desc;
  make vfs ~clock ~config ~dir ~name ~desc ~cache ~obs ~pool

let quarantine_log = Logs.Src.create "lt.quarantine" ~doc:"Tablet quarantine"

let is_quarantine_file entry = Filename.check_suffix entry ".quarantine"

let open_ ?cache ?(obs = Obs.noop) ?pool vfs ~clock ~config ~dir ~name =
  let desc = Descriptor.load vfs ~dir in
  (* Crash hygiene: a crash or failed flush can leave tablet files that
     never made it into a descriptor (and interrupted descriptor
     temporaries). Anything the descriptor does not reference is dead —
     except quarantined tablets, kept aside for forensics. *)
  let referenced =
    Descriptor.file_name :: List.map (fun m -> m.Descriptor.file) desc.Descriptor.tablets
  in
  List.iter
    (fun entry ->
      if (not (List.mem entry referenced)) && not (is_quarantine_file entry) then
        try Vfs.delete vfs (Filename.concat dir entry) with Vfs.Io_error _ -> ())
    (try Vfs.readdir vfs dir with Vfs.Io_error _ -> []);
  (* Validate every referenced tablet; a corrupt or truncated one is set
     aside rather than making the whole table unopenable. A missing file
     is simply dropped — there is nothing left to preserve. *)
  let quarantined = ref 0 in
  let validate m =
    let path = Filename.concat dir m.Descriptor.file in
    match
      let r = Tablet.open_reader vfs ~path ~into:desc.Descriptor.schema in
      Tablet.close r
    with
    | () -> true
    | exception (Binio.Corrupt reason | Lt_vfs.Vfs.Io_error reason) ->
        incr quarantined;
        if Vfs.exists vfs path then begin
          (try Vfs.rename vfs ~src:path ~dst:(path ^ ".quarantine")
           with Vfs.Io_error _ -> (
             try Vfs.delete vfs path with Vfs.Io_error _ -> ()));
          (try Vfs.sync_dir vfs dir with Vfs.Io_error _ -> ())
        end;
        Logs.warn ~src:quarantine_log (fun f ->
            f "table %s: quarantined tablet %s (%s)" name m.Descriptor.file
              reason);
        false
  in
  let good = List.filter validate desc.Descriptor.tablets in
  let desc =
    if !quarantined = 0 then desc
    else begin
      let desc = { desc with Descriptor.tablets = good } in
      Descriptor.save vfs ~dir desc;
      desc
    end
  in
  let t = make vfs ~clock ~config ~dir ~name ~desc ~cache ~obs ~pool in
  if !quarantined > 0 then
    Stats.note_quarantined t.stats ~tablets:!quarantined;
  t

(* Must be called with [state] held. *)
let save_descriptor_locked t =
  let tablets = List.map (fun dt -> dt.meta) t.disk in
  let desc =
    Descriptor.{ schema = t.schema; ttl = t.ttl; next_id = t.next_id; tablets }
  in
  Descriptor.save t.vfs ~dir:t.dir desc

(* Must be called with [state] held. *)
let close_reader_locked dt =
  (match dt.reader with Some r -> Tablet.close r | None -> ());
  dt.reader <- None

(* Must be called with [state] held: closes the reader and queues the
   file for [drain_doomed]. The durable descriptor no longer references
   the tablet, so the unlink can wait until no lock is held. *)
let destroy_tablet_locked t dt =
  close_reader_locked dt;
  t.doomed_paths <- tablet_path t dt.meta.Descriptor.file :: t.doomed_paths

(* Unlink every queued doomed file. Must be called with no table lock
   held: deletion is blocking VFS work. Best-effort — a failed delete
   merely leaks a file that the hygiene sweep at the next [open_]
   reclaims. It must not fail the operation whose commit already
   succeeded. *)
let drain_doomed t =
  let paths =
    Mutexes.with_lock t.state (fun () ->
        let ps = t.doomed_paths in
        t.doomed_paths <- [];
        ps)
  in
  List.iter
    (fun path ->
      try if Vfs.exists t.vfs path then Vfs.delete t.vfs path
      with Vfs.Io_error _ -> ())
    paths

(* Must be called with [state] held. *)
let release_locked t dts =
  List.iter
    (fun dt ->
      dt.refs <- dt.refs - 1;
      if dt.doomed && dt.refs = 0 then destroy_tablet_locked t dt)
    dts

let close t =
  Mutexes.with_lock t.state (fun () ->
      if not t.closed then begin
        t.closed <- true;
        List.iter close_reader_locked t.disk
      end)

(* ------------------------------------------------------------------ *)
(* TTL and schema changes                                              *)
(* ------------------------------------------------------------------ *)

let ttl_cutoff_locked t =
  match t.ttl with
  | None -> None
  | Some ttl -> Some (Int64.sub (now t) ttl)

let set_ttl t ttl =
  Mutexes.with_lock t.writer_lock (fun () ->
      Mutexes.with_lock t.state (fun () ->
          t.ttl <- ttl;
          save_descriptor_locked t))

(* [mt]'s rows that pass [keep], translated from schema [from] to the
   current one, in a fresh memtable with the same identity. *)
let rebuild_memtable t ~from ~keep mt =
  let fresh =
    Memtable.create ~id:(Memtable.id mt) ~period:(Memtable.period mt)
      ~created_at:(Memtable.created_at mt)
  in
  let it = Avl.iter_asc (Memtable.snapshot mt) in
  let rec go () =
    match Avl.next it with
    | None -> ()
    | Some (key, row) ->
        if keep key then begin
          let row = Schema.translate_row ~from ~into:t.schema row in
          match Memtable.insert fresh ~key ~ts:(Key_codec.ts_of_key key) row with
          | `Ok -> Memtable.add_bytes fresh (Row_codec.stored_size t.schema row)
          | `Duplicate -> assert false
        end;
        go ()
  in
  go ();
  fresh

let change_schema t f =
  Mutexes.with_lock t.writer_lock (fun () ->
      Mutexes.with_lock t.state (fun () ->
          let old = t.schema in
          t.schema <- f old;
          let rebuild = rebuild_memtable t ~from:old ~keep:(fun _ -> true) in
          t.filling <- List.map rebuild t.filling;
          t.frozen <- List.map rebuild t.frozen;
          List.iter
            (fun dt ->
              match dt.reader with
              | Some r -> Tablet.set_target_schema r t.schema
              | None -> ())
            t.disk;
          save_descriptor_locked t))

let add_column t col = change_schema t (fun s -> Schema.add_column s col)

let widen_column t cname = change_schema t (fun s -> Schema.widen_column s cname)

(* ------------------------------------------------------------------ *)
(* Scan plan and tablet-set commit (DESIGN.md §14)                     *)
(* ------------------------------------------------------------------ *)

(* A memtable as a plan saw it: its persistent tree and spans, all read
   under [state]. *)
type mem_snap = {
  mem_id : int;
  tree : Value.t array Avl.t;
  mem_min_ts : int64;
  mem_max_ts : int64;
  mem_min_key : string;
  mem_max_key : string;
}

(* What one read or rewrite sees: the memtables and disk tablets that
   meet the box [\[lo, hi) x \[ts_min, ts_max\]], with [ts_min] already
   raised to the TTL cutoff. The disk tablets are pinned until
   [finish]. *)
type plan = {
  lo : string;
  hi : string option;
  ts_min : int64 option;
  ts_max : int64 option;
  mems : mem_snap list;
  pinned : disk_tablet list;
  considered : int;  (* disk tablets before pruning *)
}

(* The only place a tablet is pinned. Must be called with [state] held. *)
let pin_locked dts = List.iter (fun dt -> dt.refs <- dt.refs + 1) dts

(* [dts] with their readers, each opened on first use and cached on its
   tablet. Must be called with [state] held, on pinned tablets, where
   [finish] is sure to follow: a failed open then leaves no pin. *)
let open_locked t dts =
  let reader dt =
    match dt.reader with
    | Some r -> r
    | None ->
        let r =
          Tablet.open_reader ?cache:t.cache ~obs:t.obs t.vfs
            ~path:(tablet_path t dt.meta.Descriptor.file)
            ~into:t.schema
        in
        dt.reader <- Some r;
        r
  in
  List.map (fun dt -> (dt, reader dt)) dts

(* Snapshot the memtables and disk tablets, prune both by key range,
   timestamp bounds and TTL cutoff, and pin the surviving tablets. Must
   be called with [state] held. [disk] restricts the plan to those
   tablets and no memtables: a rewrite reads only its sources. Readers
   are opened later, so [latest] opens only the groups it searches. *)
let plan_locked ?disk ?(lo = "") ?hi ?ts_min ?ts_max t =
  let ts_min =
    match (ts_min, ttl_cutoff_locked t) with
    | None, c | c, None -> c
    | Some m, Some c -> Some (max m c)
  in
  let meets ~min_key ~max_key ~min_ts ~max_ts =
    String.compare lo max_key <= 0
    && (match hi with None -> true | Some h -> String.compare h min_key > 0)
    && (match ts_min with None -> true | Some b -> max_ts >= b)
    && match ts_max with None -> true | Some b -> min_ts <= b
  in
  let mems, disk =
    match disk with
    | Some dts -> ([], dts)
    | None -> (t.filling @ t.frozen, t.disk)
  in
  let mems =
    List.filter_map
      (fun m ->
        match (Memtable.ts_range m, Memtable.min_key m, Memtable.max_key m) with
        | Some (min_ts, max_ts), Some min_key, Some max_key
          when meets ~min_key ~max_key ~min_ts ~max_ts ->
            Some
              { mem_id = Memtable.id m;
                tree = Memtable.snapshot m;
                mem_min_ts = min_ts;
                mem_max_ts = max_ts;
                mem_min_key = min_key;
                mem_max_key = max_key }
        | _ -> None)
      mems
  in
  let pinned =
    List.filter
      (fun dt ->
        let m = dt.meta in
        meets ~min_key:m.Descriptor.min_key ~max_key:m.Descriptor.max_key
          ~min_ts:m.Descriptor.min_ts ~max_ts:m.Descriptor.max_ts)
      disk
  in
  pin_locked pinned;
  { lo; hi; ts_min; ts_max; mems; pinned; considered = List.length disk }

let mem_stream plan ~asc m =
  let iter = if asc then Avl.iter_asc else Avl.iter_desc in
  let it = iter ~lo:plan.lo ?hi:plan.hi m.tree in
  (m.mem_id, fun () -> Avl.next it)

(* A memtable's rows in [form]: the tree holds decoded rows under
   [schema], so an encoded stream encodes each row as it passes. *)
let mem_stream_as (type a) (form : a Tablet.form) ~schema plan ~asc m :
    int * a Cursor.stream =
  let id, next = mem_stream plan ~asc m in
  match form with
  | Tablet.Decoded -> (id, next)
  | Tablet.Encoded ->
      ( id,
        fun () ->
          match next () with
          | None -> None
          | Some (key, row) -> Some (key, Row_codec.encode_value schema row) )

let disk_stream plan ~form ~asc ?projection ?counters (dt, r) =
  ( dt.meta.Descriptor.id,
    Tablet.iter r ~form ~asc ~lo:plan.lo ?hi:plan.hi ?projection ?counters () )

(* The plan's read (§3.2): merge-sort [sources] into key order and drop
   rows outside the plan's timestamp bounds, counting every row
   examined into [scanned]. *)
let plan_cursor plan ~scanned ~asc sources =
  Cursor.filter_ts ~scanned ?ts_min:plan.ts_min ?ts_max:plan.ts_max
    (Cursor.merge ~asc sources)

(* A rewrite reads its sources whole, as value encodings under the
   schema returned with them: both come from one [state] region. *)
let rewrite_streams t plan =
  Mutexes.with_lock t.state (fun () ->
      ( t.schema,
        List.map
          (fun (dt, r) ->
            ( dt.meta.Descriptor.id,
              Tablet.iter r ~form:Tablet.Encoded ~asc:true () ))
          (open_locked t plan.pinned) ))

(* End a plan: drop its pins. A caller that staged producers on the
   pinned readers joins them first. Takes [state]; the caller drains
   doomed files once it holds no table lock. *)
let finish t plan =
  Mutexes.with_lock t.state (fun () -> release_locked t plan.pinned)

(* [f] over a fresh plan, which is finished and its doomed files drained
   on success and on error. For callers that hold no table lock. *)
let with_plan t ?lo ?hi ?ts_min ?ts_max f =
  let plan =
    Mutexes.with_lock t.state (fun () -> plan_locked t ?lo ?hi ?ts_min ?ts_max)
  in
  Fun.protect
    ~finally:(fun () ->
      finish t plan;
      drain_doomed t)
    (fun () -> f plan)

let total_size dts =
  List.fold_left (fun acc dt -> acc + dt.meta.Descriptor.size) 0 dts

(* Must be called with [state] held. *)
let next_id_locked t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* The one tablet-set swap, for flush, merge, bulk delete and expiry:
   drop [remove], add tablets for [add], keep [t.disk] in (min_ts, id)
   order, and persist. Must be called with [state] held. The descriptor
   is saved first; if that fails, [t.disk] is restored, the new files
   are queued for deletion and the removed tablets stay live. Only
   after a good save are the removed tablets doomed, so none is
   unlinked while the durable descriptor still references it; a pinned
   one dies at its last release. *)
let commit_locked t ~remove ~add =
  let saved = t.disk in
  let span_order dt = (dt.meta.Descriptor.min_ts, dt.meta.Descriptor.id) in
  t.disk <-
    List.sort
      (fun a b -> compare (span_order a) (span_order b))
      (List.map (disk_tablet ~config:t.config ~now:(now t)) add
      @ List.filter (fun dt -> not (List.memq dt remove)) t.disk);
  (try save_descriptor_locked t
   with e ->
     t.disk <- saved;
     t.doomed_paths <-
       List.map (fun m -> tablet_path t m.Descriptor.file) add @ t.doomed_paths;
     raise e);
  List.iter
    (fun dt ->
      dt.doomed <- true;
      if dt.refs = 0 then destroy_tablet_locked t dt)
    remove

(* ------------------------------------------------------------------ *)
(* Flushing                                                            *)
(* ------------------------------------------------------------------ *)

(* Drop memtables [ids] from the queues and the flush graph. Must be
   called with [state] held. *)
let retire_memtables_locked t ids =
  let live m = not (List.mem (Memtable.id m) ids) in
  t.filling <- List.filter live t.filling;
  t.frozen <- List.filter live t.frozen;
  Flush_graph.remove t.graph ids;
  match t.last_insert_tablet with
  | Some id when List.mem id ids -> t.last_insert_tablet <- None
  | _ -> ()

let freeze_locked t mt =
  t.filling <- List.filter (fun m -> Memtable.id m <> Memtable.id mt) t.filling;
  if not (List.exists (fun m -> Memtable.id m = Memtable.id mt) t.frozen) then
    t.frozen <- t.frozen @ [ mt ]

let meta_of_summary ~id ~file (s : Tablet.summary) =
  Descriptor.
    {
      id;
      file;
      min_ts = s.Tablet.min_ts;
      max_ts = s.Tablet.max_ts;
      min_key = s.Tablet.min_key;
      max_key = s.Tablet.max_key;
      row_count = s.Tablet.row_count;
      size = s.Tablet.size;
      columnar = s.Tablet.columnar;
    }

(* Write new tablet [id]; no descriptor update yet. [fill] adds the rows
   and returns how many; [None] when it added none. A failure mid-write
   abandons the partial file, so only complete files ever carry a tablet
   name; the inputs are untouched, so the caller can simply retry. *)
let write_tablet t ~id ~schema ~expected_rows ?layout fill =
  let file = Descriptor.tablet_file id in
  let writer =
    Tablet.writer t.vfs ~path:(tablet_path t file) ~schema
      ~block_size:t.config.Config.block_size
      ~bloom_bits_per_key:t.config.Config.bloom_bits_per_key ~expected_rows
      ?layout ()
  in
  try
    if fill writer = 0 then begin
      Tablet.abandon writer;
      None
    end
    else Some (meta_of_summary ~id ~file (Tablet.finish writer))
  with e ->
    Tablet.abandon writer;
    raise e

(* Write one memtable out as a tablet file. Runs without the state
   lock: frozen memtables are immutable. *)
let write_memtable t mt =
  let schema = Mutexes.with_lock t.state (fun () -> t.schema) in
  let it = Avl.iter_asc (Memtable.snapshot mt) in
  let rec fill writer n =
    match Avl.next it with
    | None -> n
    | Some (key, row) ->
        Tablet.add_enc writer ~key ~ts:(Key_codec.ts_of_key key)
          ~value_size:(Row_codec.value_size schema row)
          ~encode:(fun buf -> Row_codec.encode_value_into buf schema row);
        fill writer (n + 1)
  in
  (* Flushed memtables are never empty. *)
  Option.get
    (write_tablet t ~id:(Memtable.id mt) ~schema
       ~expected_rows:(Memtable.row_count mt) (fun writer -> fill writer 0))

(* Flush [mt] and its dependency closure as one atomic descriptor
   update (§3.4.3). Caller holds [writer_lock]. *)
let flush_closure t mt =
  let members =
    Mutexes.with_lock t.state (fun () ->
        let ids = Flush_graph.closure t.graph (Memtable.id mt) in
        let in_ids m = List.mem (Memtable.id m) ids in
        let from_filling = List.filter in_ids t.filling in
        (* Anything still filling in the closure freezes now. *)
        List.iter (freeze_locked t) from_filling;
        List.filter in_ids t.frozen)
  in
  let members =
    if List.exists (fun m -> Memtable.id m = Memtable.id mt) members then members
    else mt :: members
  in
  let members, empties =
    List.partition (fun m -> Memtable.row_count m > 0) members
  in
  (* Empty memtables (possible after a bulk delete) have nothing to
     write; drop them from the queues or the flush loop would pick them
     forever. *)
  if empties <> [] then
    Mutexes.with_lock t.state (fun () ->
        retire_memtables_locked t (List.map Memtable.id empties));
  let metas =
    List.map
      (fun m ->
        let t0, h0, m0 = obs_begin t in
        let meta = write_memtable t m in
        obs_end t ~hist:t.instr.Obs.h_flush ~op:Otrace.Flush ~t0 ~h0 ~m0
          ~returned:meta.Descriptor.row_count ();
        (m, meta))
      members
  in
  Mutexes.with_lock t.state (fun () ->
      (* Persist before touching the queues: if the descriptor save
         fails, the memtables must stay frozen (the rows are acked and
         nowhere else) and the new files die unreferenced. *)
      commit_locked t ~remove:[] ~add:(List.map snd metas);
      List.iter
        (fun (_, meta) -> Stats.note_flush t.stats ~bytes:meta.Descriptor.size)
        metas;
      retire_memtables_locked t (List.map (fun (m, _) -> Memtable.id m) metas))

(* Retry backoff for background flushes: 100 ms doubling to a 10 s cap. *)
let flush_backoff_base_us = 100_000
let flush_backoff_cap_us = 10_000_000

(* Caller holds [writer_lock]. With [swallow] (the insert and
   maintenance paths), a transient I/O failure is absorbed: the frozen
   memtables stay queued, a retry counter bumps, and further background
   attempts wait out an exponential backoff. Without it (explicit
   flushes, whose callers need durability-or-error), failures propagate
   and the backoff clock is ignored. *)
let flush_frozen_backlog ?(swallow = false) t ~limit =
  let rec go () =
    let next =
      Mutexes.with_lock t.state (fun () ->
          if List.length t.frozen >= limit then
            match t.frozen with [] -> None | m :: _ -> Some m
          else None)
    in
    match next with
    | None -> ()
    | Some _ when swallow && now t < t.flush_retry_at -> ()
    | Some m -> (
        match flush_closure t m with
        | () ->
            t.flush_failures <- 0;
            t.flush_retry_at <- 0L;
            go ()
        | exception Vfs.Io_error _ when swallow ->
            t.flush_failures <- t.flush_failures + 1;
            Stats.note_flush_retry t.stats;
            let backoff =
              min flush_backoff_cap_us
                (flush_backoff_base_us * (1 lsl min 10 (t.flush_failures - 1)))
            in
            t.flush_retry_at <- Int64.add (now t) (Int64.of_int backoff))
  in
  go ()

(* Group commit: concurrent explicit-durability callers ([flush_all],
   [flush_before]) share one flush round — and so one set of fsyncs —
   instead of queueing N identical rounds on [writer_lock]. A caller
   whose insert batches are already covered returns without touching
   the writer lock; one arriving while a round is in flight waits for
   that round and rechecks; otherwise it leads a round itself. A led
   round freezes everything filling and drains the frozen backlog, so
   it covers every batch acked before its freeze point. *)
let rec commit_rounds t =
  let role =
    Mutexes.with_lock t.state (fun () ->
        let target = t.commit_seq in
        if t.durable_seq >= target then `Covered
        else if t.commit_round_active then begin
          while t.commit_round_active do
            Condition.wait t.commit_cond t.state
          done;
          if t.durable_seq >= target then `Joined else `Retry
        end
        else begin
          t.commit_round_active <- true;
          `Lead
        end)
  in
  let count mode =
    if Obs.enabled t.obs then
      Ometrics.Counter.inc (Obs.group_commit t.obs ~table:t.tname ~mode) 1
  in
  match role with
  | `Covered -> ()
  | `Joined -> count "joined"
  | `Retry -> commit_rounds t
  | `Lead ->
      count "led";
      Fun.protect
        ~finally:(fun () ->
          Mutexes.with_lock t.state (fun () ->
              t.commit_round_active <- false;
              Condition.broadcast t.commit_cond))
        (fun () ->
          Mutexes.with_lock t.writer_lock (fun () ->
              let covered =
                Mutexes.with_lock t.state (fun () ->
                    List.iter (freeze_locked t) t.filling;
                    t.commit_seq)
              in
              flush_frozen_backlog t ~limit:1;
              Mutexes.with_lock t.state (fun () ->
                  if covered > t.durable_seq then t.durable_seq <- covered)))

let flush_all t = commit_rounds t

(* Anything inserted before the call with any timestamp — including
   every row with ts [<= ts] — is covered by a full round, so the §4.1.2
   flush-before-timestamp command rides the same group commit. *)
let flush_before t ~ts:_ = commit_rounds t

(* ------------------------------------------------------------------ *)
(* Inserts                                                             *)
(* ------------------------------------------------------------------ *)

let pp_key schema key =
  match Key_codec.decode_key schema key with
  | vs ->
      String.concat ", " (Array.to_list (Array.map Value.to_string vs))
  | exception _ -> "<undecodable>"

(* Uniqueness verdict (§3.4.4) that can be reached without touching
   disk, under [t.state]. Fast paths: a timestamp newer than everything
   seen is provably fresh, and the [target] memtable — the one the row
   is about to land in — is skipped because [Memtable.insert] detects
   its own duplicates, so checking it here would traverse the tree
   twice. [`Check cands] means only a point read can decide; the
   candidates are pinned so the caller can read them with the lock
   released. Caller holds [writer_lock], so no new rows can
   appear concurrently. *)
let classify_unique_locked t ~key ~ts ~target =
  match t.max_ts_seen with
  | Some mts when ts > mts -> `Unique
  | _ ->
      let other m =
        (match target with
        | Some tgt -> Memtable.id m <> Memtable.id tgt
        | None -> true)
        && Memtable.mem m key
      in
      if List.exists other t.filling
         || List.exists (fun m -> Memtable.mem m key) t.frozen
      then `Duplicate
      else begin
        let cands =
          List.filter
            (fun dt ->
              let m = dt.meta in
              ts >= m.Descriptor.min_ts && ts <= m.Descriptor.max_ts
              && String.compare key m.Descriptor.min_key >= 0
              && String.compare key m.Descriptor.max_key <= 0)
            t.disk
        in
        match cands with [] -> `Unique | _ -> pin_locked cands; `Check cands
      end

(* Caller holds [t.state]. *)
let create_memtable_locked t ~now:n bin =
  let m = Memtable.create ~id:(next_id_locked t) ~period:bin ~created_at:n in
  t.filling <- m :: t.filling;
  m

(* Land one validated row in [mt]. Caller holds [t.state]. Returns
   [true] when the insert pushed [mt] over the flush threshold and it
   was frozen out of [t.filling]. *)
let insert_into_locked t mt ~key ~ts row =
  (match t.last_insert_tablet with
  | Some prev when prev <> Memtable.id mt ->
      Flush_graph.add_edge t.graph ~before:prev ~after:(Memtable.id mt)
  | _ -> ());
  t.last_insert_tablet <- Some (Memtable.id mt);
  (match Memtable.insert mt ~key ~ts row with
  | `Ok -> Memtable.add_bytes mt (Row_codec.stored_size t.schema row)
  | `Duplicate -> raise (Duplicate_key (pp_key t.schema key)));
  (match t.max_ts_seen with
  | Some v when v >= ts -> ()
  | _ -> t.max_ts_seen <- Some ts);
  if Memtable.byte_size mt >= t.config.Config.flush_size then begin
    freeze_locked t mt;
    true
  end
  else false

(* The batched insert driver: runs of rows share one [t.state]
   acquisition (capped at [max_run] so concurrent readers interleave
   with a large batch), so a B-row batch costs O(B / max_run) lock
   round trips instead of two per row. A row whose uniqueness needs a
   disk point read (rare: its ts and key fall inside a flushed
   tablet's bounds) ends the run, reads with the lock released, and
   the loop resumes at that row, now known unique. Caller holds
   [writer_lock], so no row can appear meanwhile. *)
let insert_rows_locked t rows ~landed =
  let max_run = 512 in
  let pending = ref rows in
  let verified = ref None in
  while !pending <> [] do
    let deferred =
      Mutexes.with_lock t.state (fun () ->
          let n = now t in
          let run = ref 0 in
          let defer = ref None in
          (* Memtable cache: with [n] fixed for the chunk, every ts
             inside the cached bin's half-open window provably maps to
             the same filling memtable, so consecutive rows of one
             period skip the bin computation and the filling scan.
             Invalidated when the target freezes out of [t.filling]. *)
          let cache = ref None in
          while Option.is_none !defer && !pending <> [] && !run < max_run do
            (match !pending with
            | [] -> assert false
            | row :: rest ->
                Schema.validate_row t.schema row;
                let ts = Schema.row_ts t.schema row in
                let key = Key_codec.encode_key t.schema row in
                let target, bin =
                  match !cache with
                  | Some (b0, b1, mt) when ts >= b0 && ts < b1 ->
                      (Some mt, None)
                  | _ ->
                      let b = Period.bin ~now:n ts in
                      ( List.find_opt
                          (fun m -> Memtable.period m = b)
                          t.filling,
                        Some b )
                in
                let verdict =
                  match !verified with
                  | Some r when r == row ->
                      verified := None;
                      `Unique
                  | _ when not t.config.Config.enforce_unique -> `Unique
                  | _ -> classify_unique_locked t ~key ~ts ~target
                in
                (match verdict with
                | `Duplicate -> raise (Duplicate_key (pp_key t.schema key))
                | `Check cands -> defer := Some (row, key, cands)
                | `Unique ->
                    let mt =
                      match target with
                      | Some m -> m
                      | None -> create_memtable_locked t ~now:n (Option.get bin)
                    in
                    (match bin with
                    | Some b ->
                        cache := Some (b.Period.start, Period.stop b, mt)
                    | None -> ());
                    if insert_into_locked t mt ~key ~ts row then cache := None;
                    incr landed;
                    pending := rest));
            incr run
          done;
          !defer)
    in
    match deferred with
    | None -> ()
    | Some (row, key, cands) ->
        let dup =
          Fun.protect
            ~finally:(fun () ->
              (* [writer_lock] is held on this path: release without
                 draining; the next lock-free [drain_doomed] (any query
                 release or maintenance pass) unlinks the files. *)
              Mutexes.with_lock t.state (fun () -> release_locked t cands))
            (fun () ->
              Mutexes.with_lock t.state (fun () -> open_locked t cands)
              |> List.exists (fun (_, r) -> Tablet.mem r key))
        in
        if dup then raise (Duplicate_key (pp_key t.schema key));
        verified := Some row
  done

(* [insert_report] is [insert] that reports a mid-batch uniqueness
   violation as data instead of an exception: [Error (landed, msg)]
   says exactly how many leading rows committed before the duplicate
   (they stay inserted — §3.4.4 checks row by row), so a caller can
   retry only the remainder instead of double-sending. *)
let insert_report t rows =
  let t0, h0, m0 = obs_begin t in
  let landed = ref 0 in
  let result =
    Mutexes.with_lock t.writer_lock (fun () ->
        let res =
          try
            insert_rows_locked t rows ~landed;
            Ok ()
          with Duplicate_key msg -> Error (!landed, msg)
        in
        if !landed > 0 then begin
          Stats.note_insert t.stats ~rows:!landed;
          Mutexes.with_lock t.state (fun () ->
              t.commit_seq <- t.commit_seq + 1)
        end;
        flush_frozen_backlog ~swallow:true t ~limit:t.config.Config.flush_backlog;
        res)
  in
  obs_end t ~hist:t.instr.Obs.h_insert ~op:Otrace.Insert ~t0 ~h0 ~m0
    ~returned:!landed ();
  result

let insert t rows =
  match insert_report t rows with
  | Ok () -> ()
  | Error (_, msg) -> raise (Duplicate_key msg)

let insert_row t row = insert t [ row ]

let max_ts t = Mutexes.with_lock t.state (fun () -> t.max_ts_seen)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

(* Fan the scan's sources out over the worker pool when it can help: a
   pool is configured, the scan touches disk, and there is more than one
   source. Each source gets a single self-rescheduling producer task at
   a time, so the memtable AVL snapshots (immutable) and per-source
   tablet iterators (never shared between tasks) need no extra locking.
   The returned finish function must run before the caller releases its
   tablet references; {!Pscan.stage} guarantees no producer task is
   still reading after it returns. *)
let maybe_stage ?prof t ~has_disk sources =
  match t.pool with
  | Some pool when has_disk && List.length sources > 1 ->
      let obs_on = Obs.enabled t.obs in
      if obs_on then
        Ometrics.Histogram.observe t.instr.Obs.h_fanout
          (float_of_int (List.length sources));
      (match prof with
      | Some pr ->
          Mutexes.with_lock pr.pr_mutex (fun () -> pr.pr_staged <- true)
      | None -> ());
      let timed = obs_on || prof <> None in
      let now_us () = if timed then Clock.now t.clock else 0L in
      let on_worker ~busy_us ~rows:_ =
        if obs_on then
          Ometrics.Histogram.observe_us t.instr.Obs.h_worker_scan busy_us;
        match prof with
        | Some pr ->
            Mutexes.with_lock pr.pr_mutex (fun () ->
                pr.pr_scan_us <- Int64.add pr.pr_scan_us busy_us)
        | None -> ()
      in
      let on_stall dur =
        (* [record_op] both observes the histogram and records a span;
           back-dating [t0] by the stall duration makes the span close
           to [dur] long without a second clock source. *)
        if obs_on && Int64.compare dur 0L > 0 then
          Obs.record_op t.obs ~hist:t.instr.Obs.h_stall ~op:Otrace.Stall
            ~table:t.tname
            ~t0:(Int64.sub (Clock.now t.clock) dur)
            ();
        match prof with
        | Some pr ->
            Mutexes.with_lock pr.pr_mutex (fun () ->
                pr.pr_stall_us <- Int64.add pr.pr_stall_us dur)
        | None -> ()
      in
      Pscan.stage pool ~now_us ~on_worker ~on_stall sources
  | _ -> (sources, fun () -> ())

(* A running query: its stream, the schema its rows are under, and the
   idempotent [close] that joins staged producers, releases the plan's
   pins and drains doomed files. *)
type 'a scan = {
  src : 'a Cursor.stream;
  row_schema : Schema.t;
  close : unit -> unit;
  scanned : int ref;
  tablets : int;
  pruned : int;  (* disk tablets the plan pruned *)
  counters : Tablet.scan_counters;
}

(* The one scan of a query, in [form]. The plan, the schema and the
   sources come from one [state] region, so memtable rows, disk rows
   and the schema they are read under always agree. *)
let query_raw (type a) ?prof t ~(form : a Tablet.form) (q : Query.t) : a scan =
  let plan0 = match prof with Some _ -> Clock.now t.clock | None -> 0L in
  let counters = Tablet.fresh_counters () in
  let scanned = ref 0 in
  let schema0 = Mutexes.with_lock t.state (fun () -> t.schema) in
  match Query.compile schema0 q with
  | None ->
      { src = (fun () -> None); row_schema = schema0; close = ignore; scanned;
        tablets = 0; pruned = 0; counters }
  | Some compiled ->
      let asc = q.Query.direction = Query.Asc in
      let planned = ref None in
      let stop = ref ignore in
      let closed = ref false in
      let close () =
        if not !closed then begin
          closed := true;
          Fun.protect !stop ~finally:(fun () -> Option.iter (finish t) !planned);
          drain_doomed t
        end
      in
      (match
         (* [projection] and [counters] thread through to {!Tablet.iter}
            so columnar tablets decode only the referenced columns and
            report pushdown tallies. *)
         let plan, schema, sources =
           Mutexes.with_lock t.state (fun () ->
               let plan =
                 plan_locked t ~lo:compiled.Query.lo ?hi:compiled.Query.hi
                   ?ts_min:q.Query.ts_min ?ts_max:q.Query.ts_max
               in
               planned := Some plan;
               let schema = t.schema in
               ( plan,
                 schema,
                 List.map (mem_stream_as form ~schema plan ~asc) plan.mems
                 @ List.map
                     (disk_stream plan ~form ~asc ?projection:q.Query.projection
                        ~counters)
                     (open_locked t plan.pinned) ))
         in
         let staged, finish_stage =
           maybe_stage ?prof t ~has_disk:(plan.pinned <> []) sources
         in
         stop := finish_stage;
         (match prof with
         | Some pr -> pr.pr_plan_us <- Int64.sub (Clock.now t.clock) plan0
         | None -> ());
         (plan, schema, plan_cursor plan ~scanned ~asc staged)
       with
      | plan, schema, src ->
          let tablets = List.length plan.pinned in
          { src; row_schema = schema; close; scanned; tablets;
            pruned = plan.considered - tablets; counters }
      | exception e ->
          close ();
          raise e)

(* Account a finished query: pushdown tallies, stats and its span. *)
let note_query_done t ~t0 ~h0 ~m0 ~scanned ~returned ~tablets
    (c : Tablet.scan_counters) =
  let fb = Atomic.get c.Tablet.sc_footer_blocks in
  let cd = Atomic.get c.Tablet.sc_cols_decoded in
  if fb > 0 || cd > 0 then
    Stats.note_pushdown t.stats ~footer_blocks:fb ~columns:cd;
  Stats.note_query t.stats ~scanned ~returned;
  obs_end t ~hist:t.instr.Obs.h_query ~op:Otrace.Query ~t0 ~h0 ~m0 ~scanned
    ~returned ~tablets ()

let query_iter t q =
  let t0, h0, m0 = obs_begin t in
  let sc = query_raw t ~form:Tablet.Decoded q in
  let src =
    match q.Query.limit with None -> sc.src | Some n -> Cursor.take n sc.src
  in
  let returned = ref 0 in
  let finished = ref false in
  fun () ->
    if !finished then None
    else begin
      match src () with
      | Some kv ->
          incr returned;
          Some kv
      | None ->
          finished := true;
          sc.close ();
          note_query_done t ~t0 ~h0 ~m0 ~scanned:!(sc.scanned)
            ~returned:!returned ~tablets:sc.tablets sc.counters;
          None
      | exception e ->
          finished := true;
          sc.close ();
          raise e
    end

type 'rows reply = {
  rows : 'rows;
  more_available : bool;
  scanned : int;
  profile : Lt_obs.Profile.t option;
}

type result = Value.t array list reply

(* One capped reply in [form]: [gather] turns the scan's stream and
   schema into the reply's rows, taking at most [cap] of them, and says
   how many it took and whether the stream had more. *)
let capped_reply ~profile t ~form (q : Query.t) gather =
  let t0, h0, m0 = obs_begin t in
  let prof = if profile then Some (prof_acc_create t) else None in
  let sc = query_raw ?prof t ~form q in
  let server_cap = t.config.Config.server_row_limit in
  let cap =
    match q.Query.limit with
    | None -> server_cap
    | Some l -> min l server_cap
  in
  let scan0 = if profile then Clock.now t.clock else 0L in
  (* [close] joins in-flight producers, so worker busy totals are final. *)
  let rows, returned, more =
    Fun.protect ~finally:sc.close (fun () -> gather sc.row_schema ~cap sc.src)
  in
  let scanned = !(sc.scanned) in
  note_query_done t ~t0 ~h0 ~m0 ~scanned ~returned ~tablets:sc.tablets
    sc.counters;
  (* more_available signals only the server's own cap (§3.5): when the
     client asked for fewer rows than the server cap, hitting the client
     limit is not "more available" in the protocol sense. *)
  let more_available =
    more && (match q.Query.limit with None -> true | Some l -> l > server_cap)
  in
  let profile =
    Option.map
      (fun pr ->
        profile_of t pr ~scan0 ~scanned ~returned ~tablets:sc.tablets
          ~pruned:sc.pruned sc.counters)
      prof
  in
  { rows; more_available; scanned; profile }

let query ?(profile = false) t q =
  capped_reply ~profile t ~form:Tablet.Decoded q (fun _ ~cap src ->
      let rec collect acc n =
        if n = cap then (List.rev acc, n, src () <> None)
        else
          match src () with
          | None -> (List.rev acc, n, false)
          | Some (_, row) -> collect (row :: acc) (n + 1)
      in
      collect [] 0)

let query_page ?(profile = false) t q =
  capped_reply ~profile t ~form:Tablet.Encoded q (fun schema ~cap src ->
      let page, more = Row_page.collect schema ~cap src in
      (page, page.Row_page.count, more))

(* ------------------------------------------------------------------ *)
(* Aggregate pushdown                                                  *)
(* ------------------------------------------------------------------ *)

(* [query_agg t q ~specs] evaluates one aggregate row over every row
   matching [q]'s bounds. A selected disk tablet whose key span is
   disjoint from every other selected source's span can never have a
   row shadowed by the merge cursor's dedup, so it is folded directly
   with {!Tablet.fold_aggs} — columnar blocks wholly inside the bounds
   are answered from footer stats without being read. Overlapping
   sources (and memtables) run through the ordinary merged cursor into
   the same accumulators. Always sequential — never staged on the
   worker pool — so results are identical at any [query_domains]. *)
let query_agg ?(profile = false) t (q : Query.t) ~specs =
  let t0, h0, m0 = obs_begin t in
  let prof = if profile then Some (prof_acc_create t) else None in
  let counters = Tablet.fresh_counters () in
  let accs = Array.map (fun _ -> Agg.fresh_acc ()) specs in
  let scanned = ref 0 in
  let feed_row row =
    Array.iteri
      (fun i s ->
        let v =
          match s.Agg.a_col with
          | Some c when c < Array.length row -> Some row.(c)
          | _ -> None
        in
        Agg.feed accs.(i) v)
      specs
  in
  let needed =
    Array.to_list specs
    |> List.filter_map (fun s -> s.Agg.a_col)
    |> List.sort_uniq Int.compare
  in
  let tablets, pruned =
    match Query.compile t.schema q with
    | None -> (0, 0)
    | Some compiled ->
        with_plan t ~lo:compiled.Query.lo ?hi:compiled.Query.hi
          ?ts_min:q.Query.ts_min ?ts_max:q.Query.ts_max (fun plan ->
            let span dt =
              (dt.meta.Descriptor.min_key, dt.meta.Descriptor.max_key)
            in
            let spans =
              List.map (fun m -> (m.mem_min_key, m.mem_max_key)) plan.mems
              @ List.map span plan.pinned
            in
            let meet (a_lo, a_hi) (b_lo, b_hi) =
              String.compare a_hi b_lo >= 0 && String.compare b_hi a_lo >= 0
            in
            (* A tablet's span meets itself and, if pushable, nothing else. *)
            let pushable dt = List.length (List.filter (meet (span dt)) spans) = 1 in
            let ts_lo =
              match plan.ts_min with None -> Int64.min_int | Some v -> v
            in
            let ts_hi =
              match plan.ts_max with None -> Int64.max_int | Some v -> v
            in
            (* Last to first, as the accumulators have always been fed. *)
            let residue =
              List.fold_right
                (fun ((dt, r) as p) residue ->
                  if pushable dt then begin
                    Tablet.fold_aggs r ~counters ~lo:(Some plan.lo) ~hi:plan.hi
                      ~ts_min:ts_lo ~ts_max:ts_hi ~specs ~accs ();
                    residue
                  end
                  else
                    disk_stream plan ~form:Tablet.Decoded ~asc:true
                      ~projection:needed ~counters p
                    :: residue)
                (Mutexes.with_lock t.state (fun () -> open_locked t plan.pinned))
                []
            in
            Cursor.fold
              (fun () (_, row) -> feed_row row)
              ()
              (plan_cursor plan ~scanned ~asc:true
                 (List.map (mem_stream plan ~asc:true) plan.mems @ residue));
            let n = List.length plan.pinned in
            (n, plan.considered - n))
  in
  note_query_done t ~t0 ~h0 ~m0 ~scanned:!scanned ~returned:1 ~tablets counters;
  let results = Array.mapi (fun i s -> Agg.result s.Agg.a_fn accs.(i)) specs in
  ( results,
    Option.map
      (fun pr ->
        profile_of t pr ~scan0:pr.pr_t0 ~scanned:!scanned ~returned:1 ~tablets
          ~pruned counters)
      prof )

(* ------------------------------------------------------------------ *)
(* Latest row for a key prefix (§3.4.5)                                *)
(* ------------------------------------------------------------------ *)

let latest t prefix_values =
  let t0, h0, m0 = obs_begin t in
  let prefix = Key_codec.encode_prefix t.schema prefix_values in
  let full_prefix =
    List.length prefix_values = Array.length (Schema.pkey t.schema) - 1
  in
  let scanned = ref 0 in
  let result, tablets =
    with_plan t ~lo:prefix ?hi:(Key_codec.prefix_succ prefix) (fun plan ->
        (* Every source with its timespan, oldest first. *)
        let items =
          List.sort
            (fun (a, _, _) (b, _, _) -> Int64.compare a b)
            (List.map
               (fun m -> (m.mem_min_ts, m.mem_max_ts, Either.Left m))
               plan.mems
            @ List.map
                (fun dt ->
                  let m = dt.meta in
                  (m.Descriptor.min_ts, m.Descriptor.max_ts, Either.Right dt))
                plan.pinned)
        in
        (* Group items whose timespans overlap; within a group timespans
           cannot be ordered, so the group is searched as one unit. *)
        let groups =
          List.fold_left
            (fun groups ((lo, hi, _) as item) ->
              match groups with
              | (ghi, members) :: rest when lo <= ghi ->
                  (max ghi hi, item :: members) :: rest
              | _ -> (hi, [ item ]) :: groups)
            [] items
        in
        (* [groups] is now newest-first. A group's tablets are opened
           only when it is searched; one whose Bloom filter rules the
           prefix out holds no candidate row, so it is left out. *)
        let search_group (_, members) =
          let mems, dts = List.partition_map (fun (_, _, m) -> m) members in
          let sources =
            List.map (mem_stream plan ~asc:false) mems
            @ Mutexes.with_lock t.state (fun () ->
                  List.filter_map
                    (fun ((_, r) as p) ->
                      if Tablet.may_contain_prefix r prefix then
                        Some (disk_stream plan ~form:Tablet.Decoded ~asc:false p)
                      else None)
                    (open_locked t dts))
          in
          let staged, finish_stage =
            maybe_stage t ~has_disk:(dts <> []) sources
          in
          (* Joins this group's producers before [finish] releases the
             tablets they read through; a full-prefix hit on the first
             row cancels the rest of the group's workers. *)
          Fun.protect ~finally:finish_stage (fun () ->
              let src = plan_cursor plan ~scanned ~asc:false staged in
              if full_prefix then
                (* Keys sharing all non-ts columns differ only in ts, and
                   ts is the last key column, so descending key order is
                   descending ts order: the first hit is the latest. *)
                Option.map snd (src ())
              else
                Cursor.fold
                  (fun best (key, row) ->
                    let ts = Key_codec.ts_of_key key in
                    match best with
                    | Some (bts, _) when bts >= ts -> best
                    | _ -> Some (ts, row))
                  None src
                |> Option.map snd)
        in
        (List.find_map search_group groups, List.length plan.pinned))
  in
  let returned = if result = None then 0 else 1 in
  Stats.note_query t.stats ~scanned:!scanned ~returned;
  obs_end t ~hist:t.instr.Obs.h_latest ~op:Otrace.Latest ~t0 ~h0 ~m0
    ~scanned:!scanned ~returned ~tablets ();
  result

(* ------------------------------------------------------------------ *)
(* Merging (§3.4.1, §3.4.2)                                            *)
(* ------------------------------------------------------------------ *)

(* Layout policy: a merge (or layout rewrite) whose newest input row has
   aged past [columnar_age] writes its output column-major; anything
   younger stays row-major, so fresh flushes are never columnar and a
   table mixes layouts freely. [Int64.max_int] disables the rewrite
   entirely. The same predicate drives [Merge_policy.input.stale_layout],
   so a rewrite provably flips its own trigger off. *)
let columnar_output t ~now ~max_ts =
  let age = t.config.Config.columnar_age in
  age <> Int64.max_int && Int64.sub now max_ts >= age

(* The write half of a merge or bulk-delete rewrite of tablets [srcs]:
   merge [streams] (their pinned rows, encoded under [schema]), drop
   rows past the plan's TTL cutoff or failing [keep], and write the rest
   to new tablet [id], column-major when the newest input row is old
   enough. [None] when nothing was kept. *)
let write_rewrite t plan ~id ~keep ~scanned srcs (schema, streams) =
  let max_ts =
    List.fold_left
      (fun acc dt -> max acc dt.meta.Descriptor.max_ts)
      Int64.min_int srcs
  in
  let layout =
    if columnar_output t ~now:(now t) ~max_ts then Block.Col_major
    else Block.Row_major
  in
  write_tablet t ~id ~schema ~layout
    ~expected_rows:
      (List.fold_left (fun acc dt -> acc + dt.meta.Descriptor.row_count) 0 srcs)
    (fun writer ->
      let add n (key, value) =
        if keep key then begin
          Tablet.add writer ~key ~ts:(Key_codec.ts_of_key key) ~value;
          n + 1
        end
        else n
      in
      Cursor.fold add 0 (plan_cursor plan ~scanned ~asc:true streams))

(* Advance rollover bookkeeping and pick a merge candidate. Must be
   called with [state] held. *)
let merge_plan_locked t =
  let n = now t in
  List.iter
    (fun dt ->
      let cls = Period.classify ~now:n dt.meta.Descriptor.min_ts in
      if cls <> dt.last_cls then begin
        dt.last_cls <- cls;
        if t.config.Config.rollover_spread > 0.0 then begin
          let spread =
            Xorshift.float t.rng *. t.config.Config.rollover_spread
            *. Int64.to_float (Period.class_length cls)
          in
          let until = Int64.add n (Int64.of_float spread) in
          if until > dt.eligible_at then dt.eligible_at <- until
        end
      end)
    t.disk;
  let inputs =
    List.map
      (fun dt ->
        Merge_policy.
          {
            id = dt.meta.Descriptor.id;
            size = dt.meta.Descriptor.size;
            min_ts = dt.meta.Descriptor.min_ts;
            max_ts = dt.meta.Descriptor.max_ts;
            eligible_at = dt.eligible_at;
            stale_layout =
              (not dt.meta.Descriptor.columnar)
              && columnar_output t ~now:n ~max_ts:dt.meta.Descriptor.max_ts;
          })
      t.disk
  in
  Merge_policy.plan ~now:n ~max_tablet_size:t.config.Config.max_tablet_size
    inputs

let merge_step_unlocked t =
  let picked =
    Mutexes.with_lock t.state (fun () ->
        match merge_plan_locked t with
        | None -> None
        | Some mp ->
            let sources =
              List.filter_map
                (fun id ->
                  List.find_opt (fun dt -> dt.meta.Descriptor.id = id) t.disk)
                mp.Merge_policy.ids
            in
            (* Sources wholly past the TTL are not read, only removed. *)
            Some (sources, plan_locked t ~disk:sources, next_id_locked t))
  in
  match picked with
  | None -> false
  | Some (sources, plan, id) ->
      let t0, h0, m0 = obs_begin t in
      let scanned = ref 0 in
      Fun.protect
        ~finally:(fun () -> finish t plan)
        (fun () ->
          (* [None]: everything in the inputs had expired. *)
          let meta =
            write_rewrite t plan ~id ~keep:(fun _ -> true) ~scanned sources
              (rewrite_streams t plan)
          in
          Mutexes.with_lock t.state (fun () ->
              commit_locked t ~remove:sources ~add:(Option.to_list meta);
              Stats.note_merge t.stats
                ~bytes_in:(total_size sources)
                ~bytes_out:
                  (match meta with None -> 0 | Some m -> m.Descriptor.size));
          obs_end t ~hist:t.instr.Obs.h_merge ~op:Otrace.Merge ~t0 ~h0 ~m0
            ~scanned:!scanned
            ~returned:
              (match meta with None -> 0 | Some m -> m.Descriptor.row_count)
            ~tablets:(List.length sources) ());
      true

let merge_step t =
  Fun.protect
    ~finally:(fun () -> drain_doomed t)
    (fun () -> Mutexes.with_lock t.maint_lock (fun () -> merge_step_unlocked t))

(* ------------------------------------------------------------------ *)
(* Expiry (§3.3)                                                       *)
(* ------------------------------------------------------------------ *)

let expire_unlocked t =
  Mutexes.with_lock t.state (fun () ->
      match ttl_cutoff_locked t with
      | None -> 0
      | Some cutoff -> (
          match
            List.filter (fun dt -> dt.meta.Descriptor.max_ts < cutoff) t.disk
          with
          | [] -> 0
          | expired ->
              commit_locked t ~remove:expired ~add:[];
              let n = List.length expired in
              Stats.note_expired t.stats ~tablets:n;
              n))

let expire t =
  Fun.protect
    ~finally:(fun () -> drain_doomed t)
    (fun () -> Mutexes.with_lock t.maint_lock (fun () -> expire_unlocked t))

(* ------------------------------------------------------------------ *)
(* Bulk delete (§7's planned privacy-compliance feature)               *)
(* ------------------------------------------------------------------ *)

(* A merge with a key filter, in one commit: memtables are rebuilt
   without the range, and every tablet meeting it is removed, each
   straddling one replaced by a rewrite without the range. As in a
   merge, a tablet wholly past the TTL is removed unread. *)
let delete_prefix t prefix_values =
  let lo = Key_codec.encode_prefix t.schema prefix_values in
  let in_range key = String.starts_with ~prefix:lo key in
  let deleted = ref 0 in
  let keep key =
    if in_range key then begin
      incr deleted;
      false
    end
    else true
  in
  let inside dt =
    in_range dt.meta.Descriptor.min_key && in_range dt.meta.Descriptor.max_key
  in
  (* The span reaches [lo], and its first key at or past [lo] is in range. *)
  let meets dt =
    String.compare dt.meta.Descriptor.max_key lo >= 0
    && in_range (max lo dt.meta.Descriptor.min_key)
  in
  Fun.protect ~finally:(fun () -> drain_doomed t) @@ fun () ->
  Mutexes.with_lock t.writer_lock @@ fun () ->
  Mutexes.with_lock t.maint_lock @@ fun () ->
  let victims, plan, rewrites =
    Mutexes.with_lock t.state (fun () ->
        let filter mts =
          List.filter
            (fun m -> Memtable.row_count m > 0)
            (List.map (rebuild_memtable t ~from:t.schema ~keep) mts)
        in
        t.filling <- filter t.filling;
        t.frozen <- filter t.frozen;
        let live_ids = List.map Memtable.id (t.filling @ t.frozen) in
        (match t.last_insert_tablet with
        | Some id when not (List.mem id live_ids) ->
            t.last_insert_tablet <- None
        | _ -> ());
        let victims = List.filter meets t.disk in
        let whole, straddling = List.partition inside victims in
        List.iter
          (fun dt -> deleted := !deleted + dt.meta.Descriptor.row_count)
          whole;
        let plan = plan_locked t ~disk:straddling in
        ( victims,
          plan,
          List.map (fun dt -> (dt, next_id_locked t)) plan.pinned ))
  in
  Fun.protect
    ~finally:(fun () -> finish t plan)
    (fun () ->
      (* On a failure mid-rewrite, replacements written so far die
         unreferenced and are swept at the next open. *)
      let schema, streams = rewrite_streams t plan in
      let add =
        List.filter_map
          (fun ((dt, id), stream) ->
            write_rewrite t plan ~id ~keep ~scanned:(ref 0) [ dt ]
              (schema, [ stream ]))
          (List.combine rewrites streams)
      in
      Mutexes.with_lock t.state (fun () ->
          commit_locked t ~remove:victims ~add));
  !deleted

(* ------------------------------------------------------------------ *)
(* Maintenance                                                         *)
(* ------------------------------------------------------------------ *)

let maintenance t =
  Mutexes.with_lock t.writer_lock (fun () ->
      let n = now t in
      Mutexes.with_lock t.state (fun () ->
          List.iter
            (fun m ->
              if Int64.sub n (Memtable.created_at m) >= t.config.Config.flush_age
              then freeze_locked t m)
            t.filling);
      flush_frozen_backlog ~swallow:true t ~limit:1);
  Mutexes.with_lock t.maint_lock (fun () ->
      while merge_step_unlocked t do
        ()
      done;
      ignore (expire_unlocked t));
  drain_doomed t

(* ------------------------------------------------------------------ *)
(* Introspection                                                       *)
(* ------------------------------------------------------------------ *)

let tablet_count t = Mutexes.with_lock t.state (fun () -> List.length t.disk)

let memtable_count t =
  Mutexes.with_lock t.state (fun () -> List.length t.filling + List.length t.frozen)

let tablets t = Mutexes.with_lock t.state (fun () -> List.map (fun dt -> dt.meta) t.disk)

let disk_size t = Mutexes.with_lock t.state (fun () -> total_size t.disk)
