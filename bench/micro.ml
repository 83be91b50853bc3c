(* Bechamel wall-clock microbenchmarks: one Test.make per paper
   table/figure counterpart, measuring the CPU side of each hot path
   (the disk side is the cost model's job in the figure benches):

   - headline row path: key encode, row encode/decode (table of §5.1.2);
   - Figure 2 counterpart: single-batch insert into a table;
   - Figure 3 counterpart: block build + LZ compression (flush path);
   - the write path's layers one at a time: LZ compression and CRC-32C
     of a 64 kB row block, and an N-tablet merge rewrite;
   - Figure 5/6 counterpart: cursor merge step and block binary search;
   - the read path's layers one at a time: a shard's page build from a
     cached tablet, a router's merge of three pages, a client's decode;

   Every input is built at module initialisation, outside the timed
   closures.
   - §3.4.5: bloom add/mem; §4.1.2: HLL add. *)

open Bechamel
open Littletable

let schema = Support.row_schema ()

let sample_row =
  let rng = Lt_util.Xorshift.create 1L in
  Support.make_row rng ~ts:1_000_000L ~row_size:128

let sample_key = Key_codec.encode_key schema sample_row

let sample_value = Row_codec.encode_value schema sample_row

let block_64k =
  let rng = Lt_util.Xorshift.create 2L in
  let b = Block.builder () in
  let i = ref 0 in
  while Block.raw_size b < 64 * 1024 do
    (* Ascending keys: fix the leading key column to the row index. *)
    let row = Support.make_row rng ~ts:(Int64.of_int !i) ~row_size:128 in
    row.(0) <- Value.Int64 (Int64.of_int !i);
    Block.add b ~key:(Key_codec.encode_key schema row)
      ~value:(Row_codec.encode_value schema row);
    incr i
  done;
  Block.finish b

let compressible_64k =
  String.concat "" (List.init 1024 (fun i -> Printf.sprintf "row-%06d-padding-data-here...............\n" (i mod 97)))

let test_key_encode =
  Test.make ~name:"key_codec.encode (6 cols)"
    (Staged.stage (fun () -> ignore (Key_codec.encode_key schema sample_row)))

let test_row_decode =
  Test.make ~name:"row_codec.decode (128 B row)"
    (Staged.stage (fun () ->
         ignore (Row_codec.decode schema ~key:sample_key ~value:sample_value)))

let test_memtable_insert =
  Test.make ~name:"memtable insert (1k rows)"
    (Staged.stage (fun () ->
         let rng = Lt_util.Xorshift.create 3L in
         let mt =
           Memtable.create ~id:1
             ~period:{ Period.start = 0L; cls = Period.Week }
             ~created_at:0L
         in
         for i = 0 to 999 do
           let row = Support.make_row rng ~ts:(Int64.of_int i) ~row_size:128 in
           ignore (Memtable.insert mt ~key:(Key_codec.encode_key schema row) ~ts:(Int64.of_int i) row)
         done))

let test_block_decode_search =
  let blk = Block.decode block_64k in
  Test.make ~name:"block binary search"
    (Staged.stage (fun () -> ignore (Block.search_geq blk sample_key)))

let test_lz_compress =
  Test.make ~name:"lz compress (64 kB text)"
    (Staged.stage (fun () -> ignore (Lt_lz.Lz.compress compressible_64k)))

let test_lz_compress_rows =
  Test.make ~name:"lz compress (64 kB row block)"
    (Staged.stage (fun () -> ignore (Lt_lz.Lz.compress block_64k)))

let test_crc32c =
  Test.make ~name:"crc32c (64 kB row block)"
    (Staged.stage (fun () -> ignore (Lt_util.Crc32c.string block_64k)))

(* The rewrite loop of a merge — open the inputs, k-way merge their
   encoded rows, write and finish the output tablet — over four
   pre-written tablets whose keys interleave. *)
let merge_inputs = 4

let merge_rows = 1000

let merge_vfs, merge_paths =
  let vfs = Lt_vfs.Vfs.memory () in
  let rng = Lt_util.Xorshift.create 6L in
  let write t =
    let path = Printf.sprintf "in%d.tab" t in
    let w =
      Tablet.writer vfs ~path ~schema ~block_size:(64 * 1024)
        ~bloom_bits_per_key:10 ~expected_rows:merge_rows ()
    in
    for i = 0 to merge_rows - 1 do
      let seq = Int64.of_int ((i * merge_inputs) + t) in
      let row = Support.make_row rng ~ts:seq ~row_size:128 in
      row.(0) <- Value.Int64 seq;
      Tablet.add_row w ~key:(Key_codec.encode_key schema row) ~ts:seq row
    done;
    ignore (Tablet.finish w);
    path
  in
  (vfs, List.init merge_inputs write)

let test_merge =
  Test.make
    ~name:(Printf.sprintf "merge %d tablets (%d rows)" merge_inputs
             (merge_inputs * merge_rows))
    (Staged.stage (fun () ->
         let readers =
           List.map
             (fun path -> Tablet.open_reader merge_vfs ~path ~into:schema)
             merge_paths
         in
         let src =
           Cursor.merge ~asc:true
             (List.mapi
                (fun i r -> (i, Tablet.iter r ~form:Tablet.Encoded ~asc:true ()))
                readers)
         in
         let w =
           Tablet.writer merge_vfs ~path:"out.tab" ~schema
             ~block_size:(64 * 1024) ~bloom_bits_per_key:10
             ~expected_rows:(merge_inputs * merge_rows) ()
         in
         let rec copy () =
           match src () with
           | None -> ()
           | Some (key, value) ->
               Tablet.add w ~key ~ts:(Key_codec.ts_of_key key) ~value;
               copy ()
         in
         copy ();
         ignore (Tablet.finish w);
         List.iter Tablet.close readers;
         Lt_vfs.Vfs.delete merge_vfs "out.tab"))

let test_lz_roundtrip =
  let c = Lt_lz.Lz.compress compressible_64k in
  let n = String.length compressible_64k in
  Test.make ~name:"lz decompress (64 kB text)"
    (Staged.stage (fun () -> ignore (Lt_lz.Lz.decompress ~raw_len:n c)))

let test_bloom =
  let bloom = Lt_bloom.Bloom.create ~expected_keys:10_000 () in
  Lt_bloom.Bloom.add bloom sample_key;
  Test.make ~name:"bloom mem"
    (Staged.stage (fun () -> ignore (Lt_bloom.Bloom.mem bloom sample_key)))

let test_hll =
  let hll = Lt_hll.Hll.create () in
  Test.make ~name:"hll add"
    (Staged.stage (fun () -> Lt_hll.Hll.add hll sample_key))

let test_table_insert_batch =
  Test.make ~name:"table insert (512-row batch)"
    (Staged.stage
       (let env = Support.make_env () in
        let table = Db.create_table env.Support.db "micro" schema ~ttl:None in
        let rng = Lt_util.Xorshift.create 4L in
        fun () ->
          Table.insert table
            (Support.make_batch rng ~clock:env.Support.clock ~n:512 ~row_size:128);
          Lt_util.Clock.advance env.Support.clock 512L))

let test_query_point =
  Test.make ~name:"table point query"
    (Staged.stage
       (let env = Support.make_env () in
        let table = Db.create_table env.Support.db "microq" schema ~ttl:None in
        let rng = Lt_util.Xorshift.create 5L in
        let rows = Support.make_batch rng ~clock:env.Support.clock ~n:4096 ~row_size:128 in
        Table.insert table rows;
        Table.flush_all table;
        let target = List.nth rows 2048 in
        let prefix =
          [ target.(0); target.(1); target.(2); target.(3); target.(4) ]
        in
        fun () -> ignore (Table.query table (Query.prefix prefix))))

(* The read path, one layer at a time, over 128 B rows: a shard builds
   a page of encoded rows from a cached tablet, a router merges three
   shards' pages on key bytes, and the client decodes the result. *)
let page_rows = 1024

let test_shard_page =
  Test.make
    ~name:(Printf.sprintf "read: shard page build (%d rows, cached)" page_rows)
    (Staged.stage
       (let env = Support.make_env () in
        let table = Db.create_table env.Support.db "micropage" schema ~ttl:None in
        let rng = Lt_util.Xorshift.create 7L in
        Table.insert table
          (Support.make_batch rng ~clock:env.Support.clock ~n:page_rows
             ~row_size:128);
        Table.flush_all table;
        ignore (Table.query_page table Query.all);
        fun () -> ignore (Table.query_page table Query.all)))

(* Three shards' pages whose keys interleave, as a hash placement
   spreads one key range. *)
let shard_pages =
  let rng = Lt_util.Xorshift.create 8L in
  let rows =
    List.init (3 * page_rows) (fun i ->
        let row = Support.make_row rng ~ts:(Int64.of_int i) ~row_size:128 in
        row.(0) <- Value.Int64 (Int64.of_int i);
        row)
  in
  List.init 3 (fun s ->
      let b = Buffer.create (page_rows * 160) in
      List.iteri
        (fun i row ->
          if i mod 3 = s then
            Row_page.add b ~key:(Key_codec.encode_key schema row)
              ~value:(Row_codec.encode_value schema row))
        rows;
      Row_page.of_string schema ~count:page_rows (Buffer.contents b))

let test_router_merge =
  Test.make
    ~name:(Printf.sprintf "read: router merge (3 pages x %d rows)" page_rows)
    (Staged.stage (fun () ->
         ignore
           (Row_page.collect schema ~cap:(3 * page_rows)
              (Cursor.merge ~asc:true
                 (List.mapi (fun i p -> (i, Row_page.stream p)) shard_pages)))))

let merged_page =
  fst
    (Row_page.collect schema ~cap:(3 * page_rows)
       (Cursor.merge ~asc:true
          (List.mapi (fun i p -> (i, Row_page.stream p)) shard_pages)))

let test_client_decode =
  Test.make
    ~name:(Printf.sprintf "read: client page decode (%d rows)" (3 * page_rows))
    (Staged.stage (fun () -> ignore (Row_page.rows merged_page)))

let all_tests =
  Test.make_grouped ~name:"littletable"
    [
      test_key_encode; test_row_decode; test_memtable_insert;
      test_block_decode_search; test_lz_compress; test_lz_compress_rows;
      test_crc32c; test_merge; test_lz_roundtrip;
      test_bloom; test_hll; test_table_insert_batch; test_query_point;
      test_shard_page; test_router_merge; test_client_decode;
    ]

let run () =
  Support.header "Microbenchmarks (bechamel, wall clock)";
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some (est :: _) -> est
          | _ -> Float.nan
        in
        (name, ns) :: acc)
      results []
  in
  Support.table_header [ ("benchmark", 44); ("ns/op", 14); ("ops/s", 14) ];
  List.iter
    (fun (name, ns) ->
      Support.metric ~name ~value:ns ~unit:"ns/op";
      Printf.printf "%-44s  %-14.1f  %-14.0f\n" name ns (1e9 /. ns))
    (List.sort compare rows)
