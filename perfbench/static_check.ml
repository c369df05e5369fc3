(* static-check: `vdram lint`, `check` and `advise` over the shipped
   examples, plus the Figure 8/9 datasheet verification.

   The interval abstract interpreter, DSL parse/elaboration and the
   sim's legality replay do all the work here and the engine does
   none, so this workload gates changes to lib/absint.  An item is one
   checked file: Lint.run, Check.run with concrete samples, and
   Advise.run.  Every pass must reproduce the first pass's lint JSON,
   certificate and advise JSON byte for byte, and the datasheet rows
   bit for bit.

   The traced run rebuilds Check.run from its public parts — DSL
   parse and elaboration, Bounds.compute, Monotone.certify per axis,
   the legality sweep over the fourteen roadmap generations and the
   concrete sampling — and checks that the certificate it assembles
   equals Check.run's. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Spec = Vdram_core.Spec
module Node = Vdram_tech.Node
module Roadmap = Vdram_tech.Roadmap
module Interval = Vdram_units.Interval
module Parser = Vdram_dsl.Parser
module Elaborate = Vdram_dsl.Elaborate
module Lint = Vdram_lint.Lint
module Check = Vdram_lint.Check
module Advise = Vdram_lint.Advise
module Abox = Vdram_absint.Abox
module Bounds = Vdram_absint.Bounds
module Monotone = Vdram_absint.Monotone
module Certificate = Vdram_absint.Certificate
module Timing = Vdram_sim.Timing
module Legality = Vdram_sim.Legality
module Compare = Vdram_datasheets.Compare

let span = Trace.span
let samples = 500
let examples = Serve_mixed.examples

type file = { name : string; source : string }

(* Load every example and elaborate it once: the set-up a caller pays
   before the first check. *)
let setup () =
  List.map
    (fun f ->
      let source = Serve_mixed.read_file (Filename.concat "examples" f) in
      match Elaborate.load_string source with
      | Ok _ -> { name = f; source }
      | Error e -> failwith (Format.asprintf "%s: %a" f Parser.pp_error e))
    examples

(* Everything a pass produces, as comparable strings. *)
let check_file ~seed f =
  let lint = Lint.to_json (Lint.run ~file:f.name f.source) in
  let c = Check.run ~samples ~seed ~file:f.name f.source in
  let cert = Option.fold ~none:"none" ~some:Certificate.to_json c.Check.certificate in
  let advise = Advise.to_json (Advise.run ~file:f.name f.source) in
  String.concat "\n" [ lint; Lint.to_json c.Check.report; cert; advise ]

let datasheets () =
  List.concat_map
    (fun (r : Compare.row) -> List.map (fun (n, v) -> Printf.sprintf "%s %Lx" n (Util.bits v)) r.Compare.model_ma)
    (Compare.fig8 () @ Compare.fig9 ())
  |> String.concat ";"

(* ----- Check.run from its parts (traced runs) ---------------------- *)

let cap_messages n msgs =
  let total = List.length msgs in
  if total <= n then msgs
  else List.filteri (fun i _ -> i < n) msgs @ [ Printf.sprintf "... and %d more" (total - n) ]

(* The whole-sweep legality replay: generations grouped by bank count,
   each group replayed once under its worst-case timing and member by
   member only when that fails. *)
let sweep cfg p =
  let with_timing = List.map (fun g -> (g, Timing.of_config (Config.of_generation g))) Roadmap.all in
  let banks = List.sort_uniq compare (List.map (fun g -> g.Roadmap.banks) Roadmap.all) in
  let by_group =
    List.concat_map
      (fun b ->
        let members = List.filter (fun (g, _) -> g.Roadmap.banks = b) with_timing in
        let worst =
          List.fold_left (fun acc (_, t) -> Timing.worst_case acc t) (snd (List.hd members)) (List.tl members)
        in
        if fst (Legality.replay_pattern worst ~banks:b p) = [] then List.map (fun (g, _) -> (g, [])) members
        else List.map (fun (g, t) -> (g, fst (Legality.replay_pattern t ~banks:b p))) members)
      banks
  in
  let authored_legal =
    fst (Legality.replay_pattern (Timing.of_config cfg) ~banks:cfg.Config.spec.Spec.banks p) = []
  in
  {
    Certificate.authored_node = Node.name cfg.Config.node;
    authored_legal;
    entries =
      List.map
        (fun g ->
          let viols = List.assq g.Roadmap.node (List.map (fun (g, v) -> (g.Roadmap.node, v)) by_group) in
          {
            Certificate.node = Node.name g.Roadmap.node;
            legal = viols = [];
            violations = cap_messages 4 (List.map Legality.message viols);
          })
        Roadmap.all;
  }

(* Concrete configurations drawn from the box must lie inside the
   bounds, drawn as Check.run draws them. *)
let sample_check ~seed box p (b : Bounds.t) =
  let st = Random.State.make [| seed |] in
  let contained = ref true in
  for _ = 1 to samples do
    let scales =
      List.map
        (fun (a : Abox.axis) ->
          let s = a.Abox.scale in
          if s.Interval.hi > s.Interval.lo then s.Interval.lo +. Random.State.float st (s.Interval.hi -. s.Interval.lo)
          else s.Interval.lo)
        (Abox.axes box)
    in
    let r = Model.pattern_power (Abox.instantiate box scales) p in
    let inside (i : Interval.t) x = x >= i.Interval.lo && x <= i.Interval.hi in
    let ok =
      inside b.Bounds.power r.Report.power
      && inside b.Bounds.current r.Report.current
      && inside b.Bounds.background r.Report.background_power
      &&
      match (b.Bounds.energy_per_bit, r.Report.energy_per_bit) with
      | Some i, Some e -> inside i e
      | None, None -> true
      | _ -> false
    in
    if not ok then contained := false
  done;
  { Certificate.count = samples; contained = !contained }

let certificate ~seed f =
  let ast = Result.get_ok (span "dsl.parse" (fun () -> Parser.parse ~file:f.name f.source)) in
  let e = Result.get_ok (span "dsl.elaborate" (fun () -> Elaborate.to_result (Elaborate.elaborate ast))) in
  let cfg = e.Elaborate.config in
  let p = match e.Elaborate.pattern with Some p -> p | None -> Pattern.idd4r cfg.Config.spec in
  let axes = Check.default_axes () in
  let box = Abox.v ~base:cfg axes in
  let bounds = span "absint.bounds" (fun () -> Bounds.compute ~splits:4 box p) in
  let metric = Check.metric_for p in
  let monotonicity =
    List.map
      (fun (a : Abox.axis) ->
        let s = a.Abox.scale in
        span "absint.monotone" (fun () ->
            Monotone.certify ~max_cells:32 ~base:cfg ~lens:a.Abox.lens ~lo:s.Interval.lo ~hi:s.Interval.hi
              ~metric p))
      axes
  in
  let sweep = span "sim.legality" (fun () -> sweep cfg p) in
  let samples = span "check.samples" (fun () -> sample_check ~seed box p bounds) in
  Certificate.to_json
    (Certificate.v ~sweep ~samples ~config:cfg ~pattern:p ~box ~splits:4 ~bounds ~monotonicity ())

(* ----- the workload ------------------------------------------------ *)

let run ~seed ~seconds ~trace =
  let setup_time = Util.setup_median_s setup in
  let files = setup () in
  let check_seed = Random.State.int (Util.rng seed 3) 1_000_000 in
  let reference = List.map (check_file ~seed:check_seed) files in
  let reference_ds = datasheets () in
  if not trace then begin
    let passes =
      Util.passes ~warmup:1.0 ~seconds (fun () ->
          Gc.full_major ();
          let t0 = Util.now () in
          let timed =
            List.map2
              (fun f expected ->
                let out, dt = Util.time (fun () -> check_file ~seed:check_seed f) in
                (dt, out <> expected))
              files reference
          in
          let ds_bad = datasheets () <> reference_ds in
          ( Util.since t0,
            {
              Util.calls = List.map fst timed;
              items = List.length files;
              bad = List.length (List.filter snd timed) + Bool.to_int ds_bad;
              failed = 0;
            } ))
    in
    let r = Util.end_to_end ~setup:setup_time ~rss:(Util.vm_hwm_mb "self") passes in
    {
      r with
      Util.notes =
        [
          Printf.sprintf
            "%d timed passes x %d files (%d concrete samples each) + Figure 8/9 rows after 1 s of warm-up; latency is one file's lint + check + advise"
            (List.length passes) (List.length files) samples;
        ];
    }
  end
  else begin
    let expected_certs =
      List.map
        (fun f ->
          Option.fold ~none:"none" ~some:Certificate.to_json
            (Check.run ~samples ~seed:check_seed ~file:f.name f.source).Check.certificate)
        files
    in
    let replay () =
      let bad = ref 0 in
      List.iter2
        (fun f cert ->
          let lint = span "lint" (fun () -> Lint.to_json (Lint.run ~file:f.name f.source)) in
          if certificate ~seed:check_seed f <> cert then incr bad;
          let advise = span "advise" (fun () -> Advise.to_json (Advise.run ~file:f.name f.source)) in
          ignore (lint, advise))
        files expected_certs;
      if span "datasheets.compare" datasheets <> reference_ds then incr bad;
      !bad
    in
    let bad, t, overhead = Util.traced_loop ~seconds replay in
    let files_n = float_of_int (List.length files) in
    {
      Util.attempted = List.length files;
      failed = 0;
      mismatches = bad;
      metrics =
        List.map
          (fun (name, layer) -> Util.m name "ms" (Trace.self_s t layer /. files_n *. 1e3))
          [
            ("absint.bounds_ms", "absint.bounds");
            ("absint.monotone_ms", "absint.monotone");
            ("check.samples_ms", "check.samples");
            ("sim.legality_ms", "sim.legality");
            ("lint.ms", "lint");
            ("advise.ms", "advise");
          ]
        @ [ Util.m "trace.overhead_pct" "%" overhead ];
      notes = [];
      raw = [];
      table = Some t;
    }
  end
