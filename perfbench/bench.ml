(* The layered benchmark.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 a run measures the workload's end-to-end metrics;
   with --trace 1 it measures the per-layer metrics and prints the
   self-time table.  Every run checks the workload's outputs against
   its oracle, prints a human-readable report, writes the full result
   (stamp, metrics, table) under .perfbench_out/, and ends stdout with
   one JSON object:

     {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

   See NOTES.md for the workloads, the metrics and the layer map. *)

module Compare = Vdram_datasheets.Compare
module Idd = Vdram_datasheets.Idd

let workloads =
  [
    ("corners-20k", Batch.Corners_w.run);
    ("sensitivity-roadmap", Batch.Sensitivity_w.run);
    ("serve-mixed", Serve_mixed.run);
    ("static-check", Static_check.run);
  ]

(* Seeds with a role: the development seed is the one performance work
   is tuned on; the held-out seed is kept for re-checking a claim on
   inputs not used while making it. *)
let seed_role = function 1 -> "development" | 2027 -> "held-out" | _ -> "other"

(* Mean |model - datasheet mean| / datasheet mean over every Figure 8/9
   point and assumed node, percent.  A performance-only change must
   leave it exactly as it was. *)
let model_error_pct () =
  let errs =
    List.concat_map
      (fun (r : Compare.row) ->
        let ds = Idd.mean_ma r.Compare.point in
        List.map (fun (_, model) -> Float.abs (model -. ds) /. ds) r.Compare.model_ma)
      (Compare.fig8 () @ Compare.fig9 ())
  in
  100.0 *. Util.mean errs

(* Every file under lib/ and bin/, digested in path order: identifies
   the measured code where no commit id is available. *)
let source_digest () =
  let rec walk dir =
    Sys.readdir dir |> Array.to_list |> List.sort compare
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then walk p
           else if Filename.check_suffix p ".ml" || Filename.check_suffix p ".mli" then [ p ]
           else [])
  in
  match List.concat_map walk [ "lib"; "bin" ] with
  | files -> Digest.to_hex (Digest.string (String.concat "" (List.map Digest.file files)))
  | exception Sys_error _ -> "unknown"

let stamp ~workload ~seed ~seconds ~trace =
  let nproc = Domain.recommended_domain_count () in
  [
    ("workload", workload);
    ("seed", string_of_int seed);
    ("seed_role", seed_role seed);
    ("seconds", Printf.sprintf "%g" seconds);
    ("trace", if trace then "1" else "0");
    ("machine_class", Printf.sprintf "%s-%dcore" (String.lowercase_ascii Sys.os_type) nproc);
    ("nproc", string_of_int nproc);
    ("ocaml", Sys.ocaml_version);
    ("flambda", string_of_bool Build_stamp.flambda);
    ("commit", Option.value (Sys.getenv_opt "PERFBENCH_COMMIT") ~default:"none");
    ("source_digest", source_digest ());
  ]

let usage () =
  prerr_endline
    "usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1\n\
     workloads: corners-20k sensitivity-roadmap serve-mixed static-check";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None and trace = ref None in
  let rec go = function
    | "--workload" :: v :: rest -> workload := Some v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; go rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some sec, Some t when List.mem_assoc w workloads && sec > 0.0 -> (w, s, sec, t)
  | _ -> usage ()

(* Per-layer metrics, in a fixed order; a layer the workload never
   calls reads 0. *)
let per_layer (t : Trace.table) extra =
  let from_table =
    [
      Util.m "fingerprint.us_per_call" "us" (Trace.us_per_call t "engine.fingerprint");
      Util.m "fingerprint.calls" "count" (float_of_int (Trace.calls t "engine.fingerprint"));
      Util.m "geometry.us_per_call" "us" (Trace.us_per_call t "core.geometry");
      Util.m "extract.us_per_call" "us" (Trace.us_per_call t "core.extract");
      Util.m "extract.calls" "count" (float_of_int (Trace.calls t "core.extract"));
      Util.m "extract_delta.us_per_call" "us" (Trace.us_per_call t "core.extract_delta");
      Util.m "mix.us_per_call" "us" (Trace.us_per_call t "core.mix");
      Util.m "supervise.us_per_item" "us" (Trace.us_per_call t "engine.supervise");
      Util.m "dsl.parse_us" "us" (Trace.us_per_call t "dsl.parse");
      Util.m "dsl.elaborate_us" "us" (Trace.us_per_call t "dsl.elaborate");
      Util.m "json.parse_us" "us" (Trace.us_per_call t "serve.json.parse");
      Util.m "json.print_us" "us" (Trace.us_per_call t "serve.json.print");
      Util.m "protocol.decode_us" "us" (Trace.us_per_call t "serve.protocol.decode");
      Util.m "protocol.resolve_us" "us" (Trace.us_per_call t "serve.protocol.resolve");
      Util.m "render.us" "us" (Trace.us_per_call t "serve.render");
      Util.m "unattributed_s" "s" t.Trace.unattributed_s;
      Util.m "trace.wall_s" "s" t.Trace.wall_s;
    ]
  in
  let computed =
    [
      ("direct.us_per_item", "us");
      ("engine.overhead_us_per_item", "us");
      ("delta.spliced_share", "ratio");
      ("delta.wasted_attempts", "count");
      ("cache.extraction_hit_share", "ratio");
      ("cache.mix_hit_share", "ratio");
      ("cache.hit_us_per_item", "us");
      ("gc.major_words_per_item", "words");
      ("pool.dispatch_us_per_item", "us");
      ("pool.jobs", "count");
      ("store.warm_load_s", "s");
      ("store.flush_s", "s");
      ("serve.unattributed_us", "us");
      ("serve.ping_rtt_p50_us", "us");
      ("absint.bounds_ms", "ms");
      ("absint.monotone_ms", "ms");
      ("check.samples_ms", "ms");
      ("sim.legality_ms", "ms");
      ("lint.ms", "ms");
      ("advise.ms", "ms");
      ("trace.overhead_pct", "%");
    ]
    |> List.map (fun (name, unit_) ->
           match List.find_opt (fun (x : Util.metric) -> x.Util.name = name) extra with
           | Some x -> x
           | None -> Util.m name unit_ 0.0)
  in
  from_table @ computed

let () =
  (match Sys.argv with
   | [| _; "--corners-batch"; s |] ->
     Batch.Corners_w.batch_main (int_of_string s);
     exit 0
   | _ -> ());
  let workload, seed, seconds, trace = parse_args () in
  (* A terminated run still stops the processes it started (at_exit). *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 143));
  Sys.set_signal Sys.sigint (Sys.Signal_handle (fun _ -> exit 130));
  Util.ensure_out_dir ();
  let run = List.assoc workload workloads in
  let r = run ~seed ~seconds ~trace in
  let metrics =
    match r.Util.table with
    | Some t -> per_layer t r.Util.metrics
    | None -> r.Util.metrics @ [ Util.m "model_error_pct" "%" (model_error_pct ()) ]
  in
  let correct = r.Util.mismatches = 0 && r.Util.failed = 0 in
  let st = stamp ~workload ~seed ~seconds ~trace in
  List.iter (fun (k, v) -> Printf.printf "%-14s %s\n" k v) st;
  List.iter print_endline r.Util.notes;
  Option.iter (fun t -> Format.printf "%a@." Trace.pp t) r.Util.table;
  Printf.printf "%-14s %d\n%-14s %.6g\n" "mismatches" r.Util.mismatches "fail_share"
    (float_of_int r.Util.failed /. float_of_int (max 1 r.Util.attempted));
  List.iter (fun (x : Util.metric) -> Printf.printf "%-30s %.6g %s\n" x.Util.name x.Util.value x.Util.unit_) metrics;
  List.iter
    (fun (x : Util.metric) -> Printf.printf "raw %-26s %.6g %s\n" x.Util.name x.Util.value x.Util.unit_)
    r.Util.raw;
  let line =
    Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}" correct
      r.Util.attempted r.Util.failed (Util.metrics_json metrics)
  in
  let file =
    Filename.concat Util.out_dir (Printf.sprintf "%s-seed%d-trace%d.json" workload seed (Bool.to_int trace))
  in
  let oc = open_out file in
  Printf.fprintf oc "{\"stamp\": {%s},\n \"mismatches\": %d,\n \"raw\": %s,\n \"result\": %s"
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %S" k v) st))
    r.Util.mismatches (Util.metrics_json r.Util.raw) line;
  Option.iter
    (fun (t : Trace.table) ->
      Printf.fprintf oc ",\n \"table\": [%s]"
        (String.concat ", "
           (List.map
              (fun (x : Trace.row) ->
                Printf.sprintf "{\"layer\": %S, \"calls\": %d, \"self_s\": %s}" x.Trace.layer x.Trace.calls
                  (Util.json_float x.Trace.self_s))
              t.Trace.rows)))
    r.Util.table;
  output_string oc "}\n";
  close_out oc;
  print_endline line
