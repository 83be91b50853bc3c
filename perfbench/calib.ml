(* Machine calibration: a fixed CPU loop written here and calling
   nothing in the repo's libraries, so drift in the machine shows apart
   from change in the code. Reported as run metadata, not as a metric.
   The loop mixes integer hashing over a 64 KiB buffer (the shape of LZ
   and checksum work) with a sort (the shape of key comparison). *)

let work () =
  let buf = Bytes.create 65536 in
  let x = ref 0x9E3779B97F4A7C15L in
  for i = 0 to Bytes.length buf - 1 do
    x := Int64.logxor !x (Int64.shift_left !x 13);
    x := Int64.logxor !x (Int64.shift_right_logical !x 7);
    x := Int64.logxor !x (Int64.shift_left !x 17);
    Bytes.set buf i (Char.unsafe_chr (Int64.to_int !x land 0xff))
  done;
  let h = ref 0xcbf29ce484222325L in
  for _ = 1 to 16 do
    Bytes.iter
      (fun c -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
      buf
  done;
  let a = Array.init 100_000 (fun i -> (i * 7919) land 0xfffff) in
  Array.sort compare a;
  Int64.add !h (Int64.of_int a.(50_000))

(* Median milliseconds of eleven runs of [work]. *)
let run () =
  let times =
    List.init 11 (fun _ ->
        let t0 = Unix.gettimeofday () in
        ignore (Sys.opaque_identity (work ()));
        (Unix.gettimeofday () -. t0) *. 1000.0)
  in
  List.nth (List.sort compare times) 5
