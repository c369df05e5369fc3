(* The two batch workloads, corners-20k and sensitivity-roadmap, and
   the layer replay they share.

   Untraced runs call the analysis functions exactly as the CLI does
   ([Corners.run], [Sensitivity.run]) and time each call.  Traced runs
   rebuild the same computation from the public layer functions the
   analyses are made of, with a span around each call:

   - the analysis path: sampling through [Lenses.scale], the engine
     ([Engine.create], [Engine.current]/[Engine.power]) on
     [Supervise.map_jobs], then the summary statistics.  Its output is
     checked bit for bit against the analysis's, so the decomposition
     is known to do the same work;
   - the layer replay: the same items through [Fingerprint.of_value],
     [Model.extract], [Model.extract_delta] and
     [Model.pattern_power_staged] with no engine (the direct path),
     and through a serial engine, so the engine's cost over the direct
     path is measured on the same items;
   - the store: [Engine.flush_store] and a warm [Engine.create ~store]
     over a slice of the items. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Node = Vdram_tech.Node
module Engine = Vdram_engine.Engine
module Fingerprint = Vdram_engine.Fingerprint
module Supervise = Vdram_engine.Supervise
module Lenses = Vdram_analysis.Lenses
module Corners = Vdram_analysis.Corners
module Sensitivity = Vdram_analysis.Sensitivity

let span = Trace.span

(* Items replayed through the layer functions, and written through the
   store, per traced run: enough calls for stable per-call means. *)
let replay_items = 5000
let store_items = 1000

(* ----- the layer replay (traced runs) ------------------------------ *)

type replay_stats = {
  mutable items : int;
  mutable spliced : int;
  mutable dirtied : int;
  mutable wasted : int;
  mutable mismatches : int;
}

(* [items] are (configuration, base, pattern, expected report) tuples:
   each is evaluated on the direct path and on a serial engine, and
   both results are checked bit for bit against [expected]. *)
let layer_replay st items =
  let engine = span "engine.create" (fun () -> Engine.create ~jobs:1 ()) in
  let bases = Hashtbl.create 64 in
  let base_extraction cfg =
    match Hashtbl.find_opt bases cfg.Config.name with
    | Some ex -> ex
    | None ->
      let ex = span "core.extract.base" (fun () -> Model.extract cfg) in
      Hashtbl.replace bases cfg.Config.name ex;
      ex
  in
  (* The engine fingerprints a pattern once per batch and each
     configuration once per item. *)
  let pattern_fps = Hashtbl.create 8 in
  let pattern_fp p =
    match Hashtbl.find_opt pattern_fps p with
    | Some fp -> fp
    | None ->
      let fp = Fingerprint.of_value p in
      Hashtbl.replace pattern_fps p fp;
      fp
  in
  List.iter
    (fun (c, base, p, expected) ->
      let bex = base_extraction base in
      let counts = Model.op_count_vector p in
      let pfp = pattern_fp p in
      span "engine.fingerprint" (fun () ->
          ignore
            (Fingerprint.combine [ Fingerprint.of_value (Model.physics_projection c); pfp ]));
      let geometry, activated_bits =
        span "core.geometry" (fun () -> (Config.geometry c, Config.activated_bits c))
      in
      ignore (span "core.extract" (fun () -> Model.extract ~activated_bits ~geometry c));
      let ex, o =
        span "core.extract_delta" (fun () ->
            Model.extract_delta ~activated_bits ~geometry ~base:bex c)
      in
      let r = span "core.mix" (fun () -> Model.pattern_power_staged ~counts ex c p) in
      let r' = span "engine.cache.serial" (fun () -> Engine.eval ~base engine c p) in
      st.items <- st.items + 1;
      st.spliced <- st.spliced + o.Model.spliced;
      st.dirtied <- st.dirtied + List.length o.Model.dirtied;
      if o.Model.spliced = 0 then st.wasted <- st.wasted + 1;
      if
        Util.bits r.Report.power <> Util.bits expected
        || Util.bits r'.Report.power <> Util.bits expected
      then st.mismatches <- st.mismatches + 1)
    items

(* Flush [items] through a store, then time a warm load and a warm pass
   (every lookup a hit). *)
let store_replay items =
  let dir = Filename.concat Util.out_dir (Printf.sprintf "store-%d" (Unix.getpid ())) in
  Util.rm_rf dir;
  let e = Engine.create ~jobs:1 ~store:(Engine.store_open ~dir ()) () in
  List.iter (fun (c, base, p, _) -> ignore (Engine.eval ~base e c p)) items;
  span "store.flush" (fun () -> Engine.flush_store e);
  let warm =
    span "store.warm_load" (fun () ->
        Engine.create ~jobs:1 ~store:(Engine.store_open ~dir ()) ())
  in
  let bad = ref 0 in
  List.iter
    (fun (c, base, p, expected) ->
      let r = span "engine.cache.hit" (fun () -> Engine.eval ~base warm c p) in
      if Util.bits r.Report.power <> Util.bits expected then incr bad)
    items;
  Util.rm_rf dir;
  !bad

(* Per-layer metrics every batch workload derives from its table. *)
let layer_metrics (t : Trace.table) st ~items ~pool_jobs ~pool_wall ~pool_items ~hits ~major_words =
  let per_item layer =
    if st.items = 0 then 0.0 else Trace.self_s t layer /. float_of_int st.items *. 1e6
  in
  let direct = per_item "core.geometry" +. per_item "core.extract_delta" +. per_item "core.mix" in
  let pool_item_s =
    match Trace.find t "engine.cache" with Some r -> r.Trace.incl_s | None -> 0.0
  in
  let extraction_hits, mix_hits = hits in
  [
    Util.m "direct.us_per_item" "us" direct;
    Util.m "engine.overhead_us_per_item" "us" (Trace.us_per_call t "engine.cache.serial" -. direct);
    Util.m "delta.spliced_share" "ratio"
      (if st.spliced + st.dirtied = 0 then 0.0
       else float_of_int st.spliced /. float_of_int (st.spliced + st.dirtied));
    Util.m "delta.wasted_attempts" "count" (float_of_int st.wasted);
    Util.m "cache.extraction_hit_share" "ratio" extraction_hits;
    Util.m "cache.mix_hit_share" "ratio" mix_hits;
    Util.m "cache.hit_us_per_item" "us" (Trace.us_per_call t "engine.cache.hit");
    Util.m "gc.major_words_per_item" "words" (major_words /. float_of_int items);
    Util.m "pool.dispatch_us_per_item" "us"
      (if pool_items = 0 then 0.0
       else ((pool_wall *. float_of_int pool_jobs) -. pool_item_s) /. float_of_int pool_items *. 1e6);
    Util.m "pool.jobs" "count" (float_of_int pool_jobs);
    Util.m "store.warm_load_s" "s" (Trace.self_s t "store.warm_load");
    Util.m "store.flush_s" "s" (Trace.self_s t "store.flush");
  ]

let hit_shares engine =
  let s = Engine.stats engine in
  let share (x : Engine.stage_stats) =
    if x.Engine.hits + x.Engine.misses = 0 then 0.0
    else float_of_int x.Engine.hits /. float_of_int (x.Engine.hits + x.Engine.misses)
  in
  (share s.Engine.extraction_stats, share s.Engine.mix_stats)

let major_words () = (Gc.quick_stat ()).Gc.major_words

(* ----- corners-20k ------------------------------------------------- *)

module Corners_w = struct
  let samples = 20_000
  let jobs = 2

  let setup () =
    let engine = Engine.create ~jobs () in
    let cfg =
      Config.commodity ~name:"2G DDR3 x16 55nm" ~node:Node.N55
        ~density_bits:(2048.0 *. (2.0 ** 20.0)) ()
    in
    (engine, cfg, Pattern.idd4r cfg.Config.spec)

  let same (a : Corners.distribution) (b : Corners.distribution) =
    a.Corners.samples = b.Corners.samples
    && a.Corners.failed = b.Corners.failed
    && List.for_all2
         (fun x y -> Util.bits x = Util.bits y)
         [ a.Corners.mean; a.Corners.std; a.Corners.min; a.Corners.max; a.Corners.p05; a.Corners.p95 ]
         [ b.Corners.mean; b.Corners.std; b.Corners.min; b.Corners.max; b.Corners.p05; b.Corners.p95 ]

  (* Corners.run's sampler, rebuilt from [Lenses]: the same LCG and
     draw order, so the traced decomposition evaluates the very
     configurations [Corners.run] does. *)
  let draws ~seed ~spread cfg =
    let state = ref (Int64.of_int (max 1 seed)) in
    let next () =
      state := Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
      Int64.to_int (Int64.shift_right_logical !state 17)
    in
    let next_float () = float_of_int (next () mod 1_000_000) /. 1_000_000.0 in
    let lenses =
      List.filter
        (fun l -> l.Lenses.name <> "external voltage Vdd")
        (Lenses.technology @ Lenses.voltages @ Lenses.logic)
    in
    let sample () =
      List.fold_left
        (fun acc lens ->
          let f = 1.0 +. (spread *. ((2.0 *. next_float ()) -. 1.0)) in
          let f =
            if String.length lens.Lenses.name >= 10 && String.sub lens.Lenses.name 0 10 = "generator "
            then Float.min f (1.0 /. Float.max 1e-9 (lens.Lenses.get acc))
            else f
          in
          Lenses.scale lens f acc)
        cfg lenses
    in
    List.init samples (fun _ -> sample ())

  (* Corners.run's summary statistics over the evaluated currents. *)
  let summarize values =
    let n_ok = List.length values in
    let sorted = List.sort Float.compare values in
    let n = float_of_int n_ok in
    let mean = List.fold_left ( +. ) 0.0 values /. n in
    let var = List.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 values /. n in
    let nth q = List.nth sorted (min (n_ok - 1) (int_of_float (q *. float_of_int (n_ok - 1)))) in
    {
      Corners.samples = n_ok;
      failed = 0;
      spread = 0.10;
      mean;
      std = sqrt var;
      min = List.hd sorted;
      max = List.nth sorted (n_ok - 1);
      p05 = nth 0.05;
      p95 = nth 0.95;
    }

  (* One batch in a fresh process, as `vdram corners` runs one: prints
     the Corners.run seconds, the reference scale measured around it in
     the same process, the process's peak RSS and the distribution, bit
     for bit. *)
  let batch_main seed =
    let engine, cfg, p = setup () in
    let before = Util.reference_scale () in
    let d, dt = Util.time (fun () -> Corners.run ~engine ~samples ~seed ~pattern:p cfg) in
    let after = Util.reference_scale () in
    Printf.printf "%.9f %.9f %.6f %d %d %s\n" dt
      (2.0 /. ((1.0 /. before) +. (1.0 /. after)))
      (Util.vm_hwm_mb "self") d.Corners.samples d.Corners.failed
      (String.concat " "
         (List.map
            (fun x -> Printf.sprintf "%Lx" (Util.bits x))
            [ d.Corners.mean; d.Corners.std; d.Corners.min; d.Corners.max; d.Corners.p05; d.Corners.p95 ]))

  (* Page placement, and so the speed of a 280 MB heap, differs from
     process to process; a fresh process per batch averages it out. *)
  let child seed =
    let exe = Sys.executable_name in
    let ic = Unix.open_process_args_in exe [| exe; "--corners-batch"; string_of_int seed |] in
    Util.children := Unix.process_in_pid ic :: !Util.children;
    let line = input_line ic in
    (match Unix.close_process_in ic with
     | Unix.WEXITED 0 -> ()
     | _ -> failwith "corners batch process failed");
    Util.children := [];
    Scanf.sscanf line "%f %f %f %d %d %Lx %Lx %Lx %Lx %Lx %Lx"
      (fun dt scale hwm samples failed mean std min max p05 p95 ->
        let f = Int64.float_of_bits in
        ( dt,
          scale,
          hwm,
          {
            Corners.samples;
            failed;
            spread = 0.10;
            mean = f mean;
            std = f std;
            min = f min;
            max = f max;
            p05 = f p05;
            p95 = f p95;
          } ))

  let draw_seed seed = 1 + Random.State.int (Util.rng seed 1) 1_000_000

  let run ~seed ~seconds ~trace =
    let setup_time = Util.setup_median_s setup in
    let _, cfg, p = setup () in
    let draw_seed = draw_seed seed in
    let corners engine = Corners.run ~engine ~samples ~seed:draw_seed ~pattern:p cfg in
    (* The reference distribution, serial: every timed batch at jobs = 2
       must reproduce it bit for bit. *)
    let reference = corners (Engine.create ~jobs:1 ()) in
    if not trace then begin
      let rss = ref [] in
      let batch () =
        let dt, scale, hwm, d = child draw_seed in
        rss := hwm :: !rss;
        {
          Util.busy = dt;
          scale;
          value =
            {
              Util.calls = [ dt ];
              items = d.Corners.samples;
              bad = (if same d reference then 0 else 1);
              failed = d.Corners.failed;
            };
        }
      in
      ignore (batch ());
      rss := [];
      let t_end = Util.now () + int_of_float (seconds *. 1e9) in
      let rec go acc n = if n >= 3 && Util.now () >= t_end then List.rev acc else go (batch () :: acc) (n + 1) in
      let passes = go [] 0 in
      let r = Util.end_to_end ~setup:setup_time ~rss:(Util.median !rss) passes in
      {
        r with
        Util.notes =
          [
            Printf.sprintf
              "%d timed batches of %d samples at jobs = %d, each in a fresh process; latency is one Corners.run call, peak RSS the median process's"
              (List.length passes) samples jobs;
          ];
      }
    end
    else begin
      let configs = draws ~seed:draw_seed ~spread:0.10 cfg in
      (* The replayed slice with its direct-path reference powers,
         computed once outside the traced window. *)
      let items =
        List.map (fun c -> (c, cfg, p, (Model.pattern_power c p).Report.power)) (Util.take replay_items configs)
      in
      let replay () =
        let st = { items = 0; spliced = 0; dirtied = 0; wasted = 0; mismatches = 0 } in
        let engine = span "engine.create" (fun () -> Engine.create ~jobs ()) in
        ignore (span "engine.cache.base" (fun () -> Engine.current engine cfg p));
        let w0 = major_words () in
        let t0 = Util.now () in
        let values =
          span "engine.pool" (fun () ->
              let under = Trace.here () in
              Supervise.map_jobs engine
                (fun c ->
                  span ?under ~weight:(1.0 /. float_of_int jobs) "engine.cache" (fun () ->
                      Engine.current ~base:cfg engine c p))
                configs)
        in
        let pool_wall = Util.since t0 in
        let words = major_words () -. w0 in
        let values = List.filter_map (function Supervise.Done v -> Some v | _ -> None) values in
        let d = span "analysis.stats" (fun () -> summarize values) in
        if not (same d reference) then st.mismatches <- st.mismatches + 1;
        let hits = hit_shares engine in
        layer_replay st items;
        let bad = store_replay (Util.take store_items items) in
        st.mismatches <- st.mismatches + bad;
        (st, pool_wall, hits, words)
      in
      let (st, pool_wall, hits, words), t, overhead = Util.traced_loop ~seconds replay in
      {
        Util.attempted = samples;
        failed = 0;
        mismatches = st.mismatches;
        metrics =
          layer_metrics t st ~items:samples ~pool_jobs:jobs ~pool_wall ~pool_items:samples ~hits
            ~major_words:words
          @ [ Util.m "trace.overhead_pct" "%" overhead ];
        notes = [];
        raw = [];
        table = Some t;
      }
    end
end

(* ----- sensitivity-roadmap ----------------------------------------- *)

module Sensitivity_w = struct
  let lenses =
    List.filter (fun l -> l.Lenses.name <> "external voltage Vdd") Lenses.all

  (* 14 roadmap devices x 3 patterns: row-only, column-only, mixed. *)
  let setup () =
    let engine = Engine.create ~jobs:1 () in
    let work =
      List.concat_map
        (fun node ->
          let cfg = Config.commodity ~node () in
          let s = cfg.Config.spec in
          [ (cfg, Pattern.idd0 s); (cfg, Pattern.idd4r s); (cfg, Pattern.idd7_mixed s) ])
        Node.all
    in
    (engine, work)

  (* Every entry against direct [Model.pattern_power] on the perturbed
     configuration; returns how many differ. *)
  let check ~variation cfg p (t : Sensitivity.t) =
    let power f lens = (Model.pattern_power (Lenses.scale lens f cfg) p).Report.power in
    let bad =
      List.filter
        (fun (e : Sensitivity.entry) ->
          match Lenses.find e.Sensitivity.lens_name with
          | None -> true
          | Some lens ->
            Util.bits e.Sensitivity.power_plus <> Util.bits (power (1.0 +. variation) lens)
            || Util.bits e.Sensitivity.power_minus <> Util.bits (power (1.0 -. variation) lens))
        t.Sensitivity.entries
    in
    List.length bad + abs (List.length t.Sensitivity.entries - List.length lenses)

  (* Evaluations per [Sensitivity.run]: the nominal point plus two per
     lens. *)
  let evals = 1 + (2 * List.length lenses)

  let variation rng = 0.05 +. Random.State.float rng 0.25

  let run ~seed ~seconds ~trace =
    let setup_time = Util.setup_median_s setup in
    let _, work = setup () in
    let rng = Util.rng seed 2 in
    if not trace then begin
      let passes =
        Util.passes ~warmup:3.0 ~seconds (fun () ->
            (* Each pass starts from a collected heap, as a fresh CLI
               process does. *)
            Gc.full_major ();
            let variation = variation rng in
            let engine = Engine.create ~jobs:1 () in
            let timed =
              List.map
                (fun (cfg, p) ->
                  let t, dt = Util.time (fun () -> Sensitivity.run ~engine ~variation ~pattern:p cfg) in
                  (dt, check ~variation cfg p t))
                work
            in
            ( List.fold_left (fun a (dt, _) -> a +. dt) 0.0 timed,
              {
                Util.calls = List.map fst timed;
                items = List.length work * evals;
                bad = List.fold_left (fun a (_, bad) -> a + bad) 0 timed;
                failed = 0;
              } ))
      in
      let r = Util.end_to_end ~setup:setup_time ~rss:(Util.vm_hwm_mb "self") passes in
      {
        r with
        Util.notes =
          [
            Printf.sprintf
              "%d timed passes x %d device-pattern pairs after 3 s of warm-up; latency is one Sensitivity.run call (%d evaluations)"
              (List.length passes) (List.length work) evals;
          ];
      }
    end
    else begin
      let variation = variation rng in
      let reference =
        let engine = Engine.create ~jobs:1 () in
        List.map (fun (cfg, p) -> Sensitivity.run ~engine ~variation ~pattern:p cfg) work
      in
      let perturbed cfg =
        List.concat_map
          (fun lens ->
            [ Lenses.scale lens (1.0 +. variation) cfg; Lenses.scale lens (1.0 -. variation) cfg ])
          lenses
      in
      let items =
        List.concat_map
          (fun (cfg, p) ->
            List.map (fun c -> (c, cfg, p, (Model.pattern_power c p).Report.power)) (perturbed cfg))
          work
        |> Util.take replay_items
      in
      let replay () =
        let st = { items = 0; spliced = 0; dirtied = 0; wasted = 0; mismatches = 0 } in
        let engine = span "engine.create" (fun () -> Engine.create ~jobs:1 ()) in
        let w0 = major_words () in
        let pool_wall = ref 0.0 in
        List.iter2
          (fun (cfg, p) (expected : Sensitivity.t) ->
            let nominal = span "engine.cache.base" (fun () -> Engine.power engine cfg p) in
            let configs = span "analysis.lenses" (fun () -> perturbed cfg) in
            let t0 = Util.now () in
            let powers =
              span "engine.pool" (fun () ->
                  Supervise.map_jobs engine
                    (fun c -> span "engine.cache" (fun () -> Engine.power ~base:cfg engine c p))
                    configs)
            in
            pool_wall := !pool_wall +. Util.since t0;
            let entries =
              span "analysis.stats" (fun () ->
                  let rec pair lenses powers =
                    match (lenses, powers) with
                    | lens :: lenses, Supervise.Done plus :: Supervise.Done minus :: powers ->
                      {
                        Sensitivity.lens_name = lens.Lenses.name;
                        power_minus = minus;
                        power_plus = plus;
                        span_percent = (plus -. minus) /. nominal *. 100.0;
                      }
                      :: pair lenses powers
                    | _ -> []
                  in
                  pair lenses powers
                  |> List.sort (fun (a : Sensitivity.entry) (b : Sensitivity.entry) ->
                         Float.compare (Float.abs b.Sensitivity.span_percent)
                           (Float.abs a.Sensitivity.span_percent)))
            in
            if
              List.length entries <> List.length expected.Sensitivity.entries
              || not
                   (List.for_all2
                      (fun (a : Sensitivity.entry) (b : Sensitivity.entry) ->
                        a.Sensitivity.lens_name = b.Sensitivity.lens_name
                        && Util.bits a.Sensitivity.power_plus = Util.bits b.Sensitivity.power_plus
                        && Util.bits a.Sensitivity.power_minus = Util.bits b.Sensitivity.power_minus)
                      entries expected.Sensitivity.entries)
            then st.mismatches <- st.mismatches + 1)
          work reference;
        let words = major_words () -. w0 in
        let hits = hit_shares engine in
        layer_replay st items;
        st.mismatches <- st.mismatches + store_replay (Util.take store_items items);
        (st, !pool_wall, hits, words)
      in
      let (st, pool_wall, hits, words), t, overhead = Util.traced_loop ~seconds replay in
      let n = List.length work * evals in
      {
        Util.attempted = n;
        failed = 0;
        mismatches = st.mismatches;
        metrics =
          layer_metrics t st ~items:n ~pool_jobs:1 ~pool_wall ~pool_items:(n - List.length work) ~hits
            ~major_words:words
          @ [ Util.m "trace.overhead_pct" "%" overhead ];
        notes = [];
        raw = [];
        table = Some t;
      }
    end
end
