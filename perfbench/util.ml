(* Timing, statistics, process memory and result output shared by the
   workloads. *)

let now = Trace.now
let since t0 = float_of_int (Trace.now () - t0) *. 1e-9

let time f =
  let t0 = now () in
  let v = f () in
  (v, since t0)

(* Nearest-rank quantile of an unsorted sample; [q] in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  Array.sort Float.compare a;
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  a.(max 0 (min (n - 1) k))

let median xs = quantile 0.5 xs
let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Peak resident set (VmHWM) of a process, MB. *)
let vm_hwm_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  let ic = open_in path in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let bits = Int64.bits_of_float

(* Deterministic per-workload generator, seeded from [--seed] only. *)
let rng seed salt = Random.State.make [| seed; salt |]

(* Scratch directory for spans, stores and sockets, inside the checkout. *)
let out_dir = ".perfbench_out"

let ensure_out_dir () =
  if not (Sys.file_exists out_dir) then Unix.mkdir out_dir 0o755

(* Child processes still running; killed and reaped if the benchmark
   exits early. *)
let children : int list ref = ref []

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !children)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* ----- results ----------------------------------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one run produces: the contract's correctness fields, the
   metrics of the requested mode, lines for the human-readable report
   and, for traced runs, the self-time table. *)
type result = {
  attempted : int;
  failed : int;
  mismatches : int;
  metrics : metric list;
  raw : metric list;  (* the same times before reference scaling *)
  notes : string list;
  table : Trace.table option;
}

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let metrics_json ms =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" x.name (json_float x.value)
             x.unit_)
         ms)
  ^ "}"

(* ----- machine-speed reference ------------------------------------ *)

(* The machine this runs on shares its caches and memory with others,
   and vdram's allocation-heavy code speeds up and slows down with
   them by tens of percent within a minute, far more than any bound
   worth gating on.  So a fixed reference loop — benchmark code,
   independent of the program — brackets every timed pass, and the
   pass's times are scaled by [reference_nominal_s / reference time]:
   end-to-end times are reported at a fixed reference speed, with the
   raw figures printed beside them.  The loop allocates short-lived
   data and does float work; all of it dies on the minor heap, so its
   cost does not depend on the process's major heap. *)
let reference_work () =
  let acc = ref 0.0 and l = ref [] in
  for i = 1 to 1_500_000 do
    l := (float_of_int i, i) :: !l;
    if i land 0xfff = 0 then begin
      acc := List.fold_left (fun a (x, n) -> a +. sqrt x +. float_of_int (n land 7)) !acc !l;
      l := []
    end
  done;
  Sys.opaque_identity !acc

(* About the reference loop's time on an unloaded 2-core machine of
   the class this benchmark was written on. *)
let reference_nominal_s = 0.03

(* The factor that turns raw times measured next to a reference run
   into reference-speed times. *)
let reference_scale () =
  let _, dt = time reference_work in
  reference_nominal_s /. dt

(* Set-up time of [f]: set up repeatedly in 9 blocks of about 50 ms,
   each followed by a reference run, and report the median
   per-set-up time over the blocks at reference speed, with the raw
   median. *)
let setup_median_s f =
  let blocks = 9 and block_s = 0.05 in
  ignore (Sys.opaque_identity (f ()));
  let _, one = time f in
  let k = max 1 (int_of_float (block_s /. Float.max one 1e-7)) in
  let per_block () =
    let _, dt =
      time (fun () ->
          for _ = 1 to k do
            ignore (Sys.opaque_identity (f ()))
          done)
    in
    let raw = dt /. float_of_int k in
    (raw *. reference_scale (), raw)
  in
  let b = List.init blocks (fun _ -> per_block ()) in
  (median (List.map fst b), median (List.map snd b))

type 'a pass = { busy : float; scale : float; value : 'a }

(* Run [pass] untimed for [warmup] seconds (at least once) so the heap
   and caches reach their steady state, then repeatedly until
   [seconds] have passed (at least three times).  A reference run
   brackets every timed pass, and the pass is scaled by the mean of the
   two around it.  [pass] returns the seconds it spent on measured work
   and a value. *)
let passes ~warmup ~seconds pass =
  let deadline s = now () + int_of_float (s *. 1e9) in
  let w_end = deadline warmup in
  ignore (pass ());
  while now () < w_end do
    ignore (pass ())
  done;
  let t_end = deadline seconds in
  let rec go acc n before =
    if n >= 3 && now () >= t_end then List.rev acc
    else begin
      let busy, value = pass () in
      let after = reference_scale () in
      go ({ busy; scale = 2.0 /. ((1.0 /. before) +. (1.0 /. after)); value } :: acc) (n + 1) after
    end
  in
  go [] 0 (reference_scale ())

(* What one timed pass did: each call's latency (s), items completed,
   outputs that failed their oracle, and failed items. *)
type sample = { calls : float list; items : int; bad : int; failed : int }

(* Consecutive passes' call latencies grouped into windows of at least
   100 calls (the last window takes any remainder; a run with fewer
   calls is one window). *)
let windows lats =
  let rec go acc cur n = function
    | [] -> (
      match (acc, cur) with
      | _, [] -> List.rev acc
      | last :: rest, _ when n < 100 -> List.rev ((cur @ last) :: rest)
      | _ -> List.rev (cur :: acc))
    | l :: rest ->
      let cur = l @ cur and n = n + List.length l in
      if n >= 100 then go (cur :: acc) [] 0 rest else go acc cur n rest
  in
  go [] [] 0 lats

(* The end-to-end metrics of an untraced run, at reference speed, and
   their raw twins: throughput is the median over passes of items per
   second, p50 is over every call, and p99 is the median over windows
   of 100 or more calls of each window's p99 — a whole-run p99 would be
   set by the few worst moments of a shared machine. *)
let end_to_end ~setup:(setup_s, setup_raw) ~rss passes =
  let times scale_of =
    let scaled p = List.map (fun c -> c *. scale_of p *. 1e6) p.value.calls in
    let lat = List.concat_map scaled passes in
    [
      m "throughput_per_s" "1/s"
        (median
           (List.map (fun p -> float_of_int p.value.items /. (p.busy *. scale_of p)) passes));
      m "latency_p50_us" "us" (median lat);
      m "latency_p99_us" "us" (median (List.map (quantile 0.99) (windows (List.map scaled passes))));
    ]
  in
  let sum f = List.fold_left (fun a p -> a + f p.value) 0 passes in
  {
    attempted = sum (fun v -> v.items + v.failed);
    failed = sum (fun v -> v.failed);
    mismatches = sum (fun v -> v.bad);
    metrics = (m "setup_s" "s" setup_s :: times (fun p -> p.scale)) @ [ m "peak_rss_mb" "MB" rss ];
    raw = m "setup_s" "s" setup_raw :: times (fun _ -> 1.0);
    notes = [];
    table = None;
  }

(* Alternate untraced and traced replays until [seconds] have passed
   (at least one of each); the table comes from the last traced one. *)
let traced_loop ~seconds replay =
  let before = reference_scale () in
  let t_end = now () + int_of_float (seconds *. 1e9) in
  let off = ref [] and on = ref [] and last = ref None in
  while !off = [] || !on = [] || now () < t_end do
    Gc.full_major ();
    let _, dt = time replay in
    off := dt :: !off;
    Gc.full_major ();
    let v, spans = Trace.record "bench" replay in
    let t = Trace.table spans in
    on := t.Trace.wall_s :: !on;
    last := Some (v, t)
  done;
  let v, t = Option.get !last in
  let off_m = median !off and on_m = median !on in
  (* Per-layer figures are raw; the reference scale around them says
     how fast the machine was meanwhile. *)
  Printf.printf "reference scale %.3f before, %.3f after the traced passes\n" before
    (reference_scale ());
  (v, t, 100.0 *. (on_m -. off_m) /. off_m)


let take n l = List.filteri (fun i _ -> i < n) l
