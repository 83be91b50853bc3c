(* In-memory span recorder for the traced run.

   Spans are recorded from the benchmark's own wrappers around the
   calls into each layer: one per op (client side), one per router and
   shard [b_handle] call, one per SQL fetch that crossed the wire, and
   one per [Db.maintenance] call. Only one client request is ever in
   flight, so a span's parent is the innermost span whose interval
   contains it; [finish] derives parents that way. *)

type span = {
  layer : string;  (* "op" | "router" | "shard" | "sql.fetch" | "maintenance" *)
  kind : string;  (* op kind or request kind *)
  shard : int;  (* shard index for "shard"/"maintenance", else -1 *)
  s : float;
  e : float;
  op : int;  (* op id *)
  aux : int;  (* rows in a Row_batch reply / flushes during an insert *)
}

let now = Unix.gettimeofday

(* Whether the op in flight is traced; read by the wrappers in the
   server threads, written by the generator between requests. *)
let active = ref false
let current_op = ref 0
let lock = Mutex.create ()
let spans : span list ref = ref []
let recorded = ref 0

let record ~layer ~kind ?(shard = -1) ?(aux = 0) s e =
  if !active then begin
    let sp = { layer; kind; shard; s; e; op = !current_op; aux } in
    Mutex.lock lock;
    spans := sp :: !spans;
    incr recorded;
    Mutex.unlock lock
  end

(* Time [f] as one span when the op in flight is traced. *)
let timed ~layer ~kind ?shard f =
  if not !active then f ()
  else begin
    let s = now () in
    match f () with
    | r -> record ~layer ~kind ?shard s (now ()); r
    | exception ex -> record ~layer ~kind ?shard s (now ()); raise ex
  end

let reset () = spans := []; recorded := 0; active := false

(* Total length of the union of [(s, e)] intervals. *)
let union_len ivs =
  let ivs = List.sort compare ivs in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (s, e) -> acc +. (e -. s))
    | (s, e) :: rest -> (
        match cur with
        | None -> go acc (Some (s, e)) rest
        | Some (cs, ce) ->
            if s <= ce then go acc (Some (cs, Float.max ce e)) rest
            else go (acc +. (ce -. cs)) (Some (s, e)) rest)
  in
  go 0.0 None ivs

let contains p c = p.s <= c.s && c.e <= p.e && p != c

(* Spans of the run, oldest first, each with its parent (index into the
   same array, -1 for ops) and self time (duration minus the union of
   its children's intervals). *)
let finish () =
  let a = Array.of_list (List.rev !spans) in
  Array.stable_sort (fun x y -> compare (x.op, x.s, -.x.e) (y.op, y.s, -.y.e)) a;
  let n = Array.length a in
  let parent = Array.make n (-1) in
  (* Within one op, spans are sorted by start (outer first on ties), so
     the innermost container of span i is the latest earlier span of the
     same op that contains it. *)
  for i = 0 to n - 1 do
    let j = ref (i - 1) in
    while !j >= 0 && parent.(i) = -1 && a.(!j).op = a.(i).op do
      if contains a.(!j) a.(i) then parent.(i) <- !j;
      decr j
    done
  done;
  let children = Array.make n [] in
  Array.iteri (fun i p -> if p >= 0 then children.(p) <- (a.(i).s, a.(i).e) :: children.(p)) parent;
  let self = Array.mapi (fun i sp -> sp.e -. sp.s -. union_len children.(i)) a in
  (a, parent, self)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line: every span, then each layer's total self
   time. *)
let write path (a, parent, self) =
  let oc = open_out path in
  let t0 = if Array.length a > 0 then a.(0).s else 0.0 in
  let by_layer = Hashtbl.create 8 in
  Array.iteri
    (fun i sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"op\":%d,\"layer\":%s,\"kind\":%s,\"shard\":%d,\"start_us\":%.1f,\"end_us\":%.1f,\"self_us\":%.1f}\n"
        i parent.(i) sp.op (json_string sp.layer) (json_string sp.kind) sp.shard
        ((sp.s -. t0) *. 1e6) ((sp.e -. t0) *. 1e6) (self.(i) *. 1e6);
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt by_layer sp.layer) in
      Hashtbl.replace by_layer sp.layer (prev +. self.(i)))
    a;
  Hashtbl.iter
    (fun layer s -> Printf.fprintf oc "{\"layer_self_s\":%s,\"value\":%.6f}\n" (json_string layer) s)
    by_layer;
  close_out oc
