(* The evaluation engine: the parallel pool must be bit-identical to
   serial evaluation, and evaluating against any base — through the
   engine's one-slot base memo — must be bit-identical to the direct
   model. *)

module Engine = Vdram_engine.Engine
module Pool = Vdram_engine.Pool
module Model = Vdram_core.Model
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Params = Vdram_tech.Params
module Sensitivity = Vdram_analysis.Sensitivity
module Corners = Vdram_analysis.Corners
module Lenses = Vdram_analysis.Lenses
module Contribution = Vdram_circuits.Contribution
module Node = Vdram_tech.Node

let base () = Lazy.force Helpers.ddr3_2g

let scale_bitline cfg factor =
  let t = cfg.Config.tech in
  Config.with_tech cfg { t with Params.c_bitline = t.Params.c_bitline *. factor }

(* ----- pool ---------------------------------------------------------- *)

let pool_ordering () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> (x * x) + 1) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d preserves input order" jobs)
        expected
        (Pool.map ~jobs (fun x -> (x * x) + 1) xs))
    [ 1; 2; 4; 7 ]

let pool_exception_order () =
  (* Several items fail; the error surfaced must be the first failing
     item in input order, regardless of which domain hits it first. *)
  match
    Pool.map ~jobs:4
      (fun i -> if i >= 3 then failwith (string_of_int i) else i)
      (List.init 16 Fun.id)
  with
  | _ -> Alcotest.fail "expected the worker exception to propagate"
  | exception Failure msg ->
    Alcotest.(check string) "first failure in input order" "3" msg

let pool_chunked_determinism () =
  (* Any chunk geometry — single-item steals, odd sizes, one chunk per
     worker, one chunk for everything — must reproduce List.map. *)
  let xs = List.init 257 Fun.id in
  let expected = List.map (fun x -> (x * 3) - 1) xs in
  List.iter
    (fun chunk ->
      List.iter
        (fun jobs ->
          Alcotest.(check (list int))
            (Printf.sprintf "chunk=%d jobs=%d matches List.map" chunk jobs)
            expected
            (Pool.map ~chunk ~jobs (fun x -> (x * 3) - 1) xs))
        [ 2; 4 ])
    [ 1; 3; 64; 1000 ]

let pool_chunked_exception_order () =
  List.iter
    (fun chunk ->
      match
        Pool.map ~chunk ~jobs:4
          (fun i -> if i mod 5 = 3 then failwith (string_of_int i) else i)
          (List.init 64 Fun.id)
      with
      | _ -> Alcotest.fail "expected the worker exception to propagate"
      | exception Failure msg ->
        Alcotest.(check string)
          (Printf.sprintf "chunk=%d: first failure in input order" chunk)
          "3" msg)
    [ 1; 3; 16 ]

let pool_default_chunk () =
  Helpers.check_true "empty input still yields a legal chunk"
    (Pool.default_chunk ~jobs:8 0 >= 1);
  Helpers.check_true "huge inputs are capped"
    (Pool.default_chunk ~jobs:1 1_000_000 <= 1024);
  Alcotest.(check int) "about eight chunks per worker" 4
    (Pool.default_chunk ~jobs:4 128)

let vdram_jobs_env () =
  let saved = Sys.getenv_opt "VDRAM_JOBS" in
  let set v = Unix.putenv "VDRAM_JOBS" v in
  Fun.protect
    ~finally:(fun () -> set (Option.value ~default:"" saved))
    (fun () ->
      set "3";
      Alcotest.(check int) "VDRAM_JOBS=3 honoured" 3 (Pool.default_jobs ());
      set "0";
      Alcotest.(check int) "zero clamped to 1" 1 (Pool.default_jobs ());
      set "-2";
      Alcotest.(check int) "negative clamped to 1" 1 (Pool.default_jobs ());
      set "not-a-number";
      Alcotest.(check int) "garbage falls back to the machine default"
        (Domain.recommended_domain_count ())
        (Pool.default_jobs ()))

(* ----- engine vs model ----------------------------------------------- *)

let eval_matches_model () =
  let cfg = base () in
  let engine = Engine.serial () in
  List.iter
    (fun (label, p) ->
      Helpers.check_true
        (label ^ ": Engine.eval structurally equals Model.pattern_power")
        (Engine.eval engine cfg p = Model.pattern_power cfg p))
    [ ("idd0", Pattern.idd0 cfg.Config.spec);
      ("idd4r", Pattern.idd4r cfg.Config.spec);
      ("idd7_mixed", Pattern.idd7_mixed cfg.Config.spec) ]

(* ----- determinism properties ---------------------------------------- *)

(* One engine shared across iterations, so later iterations run on an
   engine that has already evaluated other configurations. *)
let shared_engine = lazy (Engine.create ~jobs:1 ())

let eval_determinism =
  QCheck.Test.make
    ~name:"eval: warm cache, cold engine and direct model bit-identical"
    ~count:25
    QCheck.(float_range 0.7 1.3)
    (fun factor ->
      let cfg = scale_bitline (base ()) factor in
      let p = Pattern.idd0 cfg.Config.spec in
      let reference = Model.pattern_power cfg p in
      let warm = Lazy.force shared_engine in
      let first = Engine.eval warm cfg p in
      let cached = Engine.eval warm cfg p in
      let cold = Engine.eval (Engine.serial ()) cfg p in
      first = reference && cached = reference && cold = reference)

let map_jobs_determinism =
  QCheck.Test.make ~name:"map_jobs: parallel bit-identical to serial"
    ~count:10
    QCheck.(pair (int_range 2 6) (list_of_size (Gen.int_range 1 12)
                                    (float_range 0.8 1.2)))
    (fun (jobs, factors) ->
      let cfg = base () in
      let p = Pattern.idd0 cfg.Config.spec in
      let cfgs = List.map (scale_bitline cfg) factors in
      let parallel = Engine.create ~jobs () in
      Engine.map_jobs parallel (fun c -> Engine.eval parallel c p) cfgs
      = List.map (fun c -> Model.pattern_power c p) cfgs)

(* ----- the base memo -------------------------------------------------- *)

(* [eval ~base] must not depend on what the base is or on what the
   engine's base slot held before: the base equal to the evaluated
   configuration, a one-lens perturbation of it, a device of another
   node, and bases that alternate call by call on one engine — on the
   pool at jobs 1 and 2, and from two threads of one domain, as the
   serve daemon's connection threads share its engine. *)
let base_memo_identity =
  QCheck.Test.make
    ~name:"eval ~base: bit-identical to Model.pattern_power for any base"
    ~count:12
    QCheck.(
      quad (float_range 0.8 1.25)
        (int_range 0 (List.length Lenses.all - 1))
        (float_range 0.7 1.3)
        (int_range 0 (List.length Node.all - 1)))
    (fun (f, lens_i, scale, node_i) ->
      let cfg = scale_bitline (base ()) f in
      let near = Lenses.scale (List.nth Lenses.all lens_i) scale cfg in
      let other = Config.commodity ~node:(List.nth Node.all node_i) () in
      let p = Pattern.idd7_mixed cfg.Config.spec in
      (* (evaluated, base) pairs *)
      let cases = [ (cfg, cfg); (near, cfg); (cfg, near); (cfg, other) ] in
      let items = List.concat (List.init 4 (fun _ -> cases)) in
      let expected = List.map (fun (c, _) -> Model.pattern_power c p) items in
      let eval e (c, b) = Engine.eval ~base:b e c p in
      let fresh =
        List.for_all2
          (fun item want -> eval (Engine.serial ()) item = want)
          items expected
      in
      let pooled jobs =
        let e = Engine.create ~jobs () in
        Engine.map_jobs e (eval e) items = expected
      in
      let threaded =
        let e = Engine.serial () in
        let run reversed =
          let order l = if reversed then List.rev l else l in
          List.for_all2
            (fun item want ->
              let ok = eval e item = want in
              Thread.yield ();
              ok)
            (order items) (order expected)
        in
        let ok = [| false; false |] in
        List.map
          (fun k -> Thread.create (fun () -> ok.(k) <- run (k = 1)) ())
          [ 0; 1 ]
        |> List.iter Thread.join;
        ok.(0) && ok.(1)
      in
      fresh && pooled 1 && pooled 2 && threaded)

(* ----- fingerprints --------------------------------------------------- *)

let fingerprint_faithful =
  QCheck.Test.make
    ~name:"fingerprint: equal iff physics projections equal, name-blind"
    ~count:40
    QCheck.(pair (float_range 0.7 1.3) (float_range 0.7 1.3))
    (fun (f1, f2) ->
      let module Fp = Vdram_engine.Fingerprint in
      let c1 = scale_bitline (base ()) f1 in
      let c2 = scale_bitline (base ()) f2 in
      let fp c = Fp.hex (Fp.of_value (Model.physics_projection c)) in
      let renamed = { c1 with Config.name = "fingerprint twin" } in
      fp c1 = fp renamed
      && (fp c1 = fp c2)
         = (Model.physics_projection c1 = Model.physics_projection c2))

(* ----- delta extraction ----------------------------------------------- *)

(* The content-addressing contract: for EVERY lens, at a random scale
   on a random base, the spliced extraction must equal the full
   re-extraction bit for bit (record and report alike), the groups the
   splice actually dirtied must be within the lens's declared dirty
   set — an under-declared [Lenses.dirties] table fails here, an
   over-declared one merely wastes splices — and the dirty decision
   itself (the compiled per-group predicates) must agree exactly with
   the marshalled sub-key digests of [Model.group_key], so the two
   encodings of each group's read set cannot drift apart. *)
let delta_matches_full =
  QCheck.Test.make
    ~name:"extract_delta: bit-identical to full for every lens" ~count:8
    QCheck.(pair (float_range 0.85 1.2) (float_range 0.7 1.3))
    (fun (base_factor, scale) ->
      let cfg = scale_bitline (base ()) base_factor in
      let base_ex = Model.extract cfg in
      let p = Pattern.idd7_mixed cfg.Config.spec in
      List.for_all
        (fun lens ->
          let cfg' = Lenses.scale lens scale cfg in
          let full = Model.extract cfg' in
          let delta, outcome = Model.extract_delta ~base:base_ex cfg' in
          delta = full
          && Model.pattern_power_staged delta cfg' p
             = Model.pattern_power_staged full cfg' p
          && (not outcome.Model.fallback)
          && List.for_all
               (fun g -> List.mem g lens.Lenses.dirties)
               outcome.Model.dirtied
          && List.for_all
               (fun g ->
                 List.mem g outcome.Model.dirtied
                 = (Model.group_key base_ex g <> Model.group_key full g))
               Contribution.groups)
        Lenses.all)

let delta_group_keys () =
  (* Scaling the bitline capacitance reaches the wordline (coupling)
     and sense-amplifier (swing) charge models and nothing else: their
     sub-keys must move, the other four must hold bit-still. *)
  let cfg = base () in
  let ex = Model.extract cfg in
  let ex' = Model.extract (scale_bitline cfg 1.1) in
  List.iter
    (fun g ->
      let name = Contribution.group_name g in
      let stable = Model.group_key ex g = Model.group_key ex' g in
      match g with
      | Contribution.Wordline | Contribution.Sense_amp ->
        Helpers.check_true (name ^ " sub-key dirtied") (not stable)
      | _ -> Helpers.check_true (name ^ " sub-key stable") stable)
    Contribution.groups

(* The engine's delta path is switched by the caller's [?base]: with a
   base it splices the base's clean groups, without one it runs the
   full extraction.  Both must return the direct model's report, and
   the splice for a bitline perturbation must re-extract exactly the
   two groups it dirties. *)
let engine_delta_path () =
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let cfg' = scale_bitline cfg 1.05 in
  let engine = Engine.create ~jobs:1 () in
  ignore (Engine.eval engine cfg p);
  let r = Engine.eval ~base:cfg engine cfg' p in
  Helpers.check_true "delta eval bit-identical to the direct model"
    (r = Model.pattern_power cfg' p);
  Helpers.check_true "delta extraction bit-identical to the full one"
    (Engine.extraction ~base:cfg engine cfg' = Model.extract cfg');
  let _, outcome = Model.extract_delta ~base:(Model.extract cfg) cfg' in
  Helpers.check_true "no fallback" (not outcome.Model.fallback);
  Alcotest.(check int) "four clean groups spliced" 4
    (List.length Contribution.groups - List.length outcome.Model.dirtied);
  (* The switch: the same engine without [~base] runs the full
     extraction and returns the same report. *)
  Helpers.check_true "full-extraction eval identical"
    (Engine.eval engine cfg' p = r);
  Helpers.check_true "full-extraction stage identical"
    (Engine.extraction engine cfg' = Model.extract cfg')

(* Sensitivity evaluates every perturbed configuration against the
   nominal one as its delta base; the same study computed with a full
   extraction per configuration must agree bit for bit. *)
let sensitivity_delta_identity () =
  let cfg = base () in
  let variation = 0.20 in
  let p = Pattern.idd7_mixed cfg.Config.spec in
  let lenses = Lenses.all in
  let s =
    Sensitivity.run ~engine:(Engine.create ~jobs:1 ()) ~variation ~lenses cfg
  in
  let full c = (Model.pattern_power c p).Vdram_core.Report.power in
  let nominal = full cfg in
  Helpers.check_true "nominal power identical with delta off"
    (s.Sensitivity.nominal_power = nominal);
  Alcotest.(check int) "one entry per lens"
    (List.length lenses) (List.length s.Sensitivity.entries);
  List.iter
    (fun lens ->
      let name = lens.Lenses.name in
      let e =
        List.find (fun e -> e.Sensitivity.lens_name = name)
          s.Sensitivity.entries
      in
      let plus = full (Lenses.scale lens (1.0 +. variation) cfg) in
      let minus = full (Lenses.scale lens (1.0 -. variation) cfg) in
      Helpers.check_true (name ^ ": identical with delta off")
        (e.Sensitivity.power_plus = plus
         && e.Sensitivity.power_minus = minus
         && e.Sensitivity.span_percent
            = (plus -. minus) /. nominal *. 100.0))
    lenses

(* ----- fault plans ---------------------------------------------------- *)

module Supervise = Vdram_engine.Supervise
module Faults = Vdram_engine.Faults

(* A supervisor that deliberately ignores VDRAM_FAULTS, so the suite
   behaves the same even under a chaos environment. *)
let quiet ?policy () = Supervise.create ?policy ~faults:Faults.none ()

let plan_exn s =
  match Faults.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "test plan %S did not parse: %s" s e

let faults_grammar () =
  let p = plan_exn "seed=7,rate=0.02,raise=mix" in
  Alcotest.(check int) "seed" 7 p.Faults.seed;
  Helpers.close "rate" 0.02 p.Faults.rate;
  Helpers.check_true "raise=mix parses"
    (p.Faults.action = Some (Faults.Raise Faults.Mix));
  Helpers.check_true "plan round-trips through to_string"
    (Faults.parse (Faults.to_string p) = Ok p);
  let stall = plan_exn "stall=0.25; seed=3" in
  Helpers.check_true "stall clause parses to a mix stall"
    (stall.Faults.action = Some (Faults.Stall (Faults.Mix, 0.25)));
  List.iter
    (fun bad ->
      match Faults.parse bad with
      | Ok _ -> Alcotest.failf "%S should not parse" bad
      | Error msg ->
        Helpers.check_true
          (Printf.sprintf "%S yields a diagnostic" bad)
          (String.length msg > 0))
    [ "seed=oops"; "rate=2"; "rate=-0.5"; "raise=teleport"; "stall=-1";
      "corrupt=disk"; "flavour=mango"; "seed" ]

let faults_reject_corrupt_store () =
  (* The persistent store is gone: its fault clause must be an error
     that names the clause, not a silently accepted no-op. *)
  match Faults.parse "seed=3,corrupt=store" with
  | Ok _ -> Alcotest.fail "corrupt=store should not parse"
  | Error msg ->
    Alcotest.(check string) "the error names the clause"
      "unknown clause \"corrupt=store\"" msg

let faulted_is_order_free () =
  let plan = plan_exn "seed=11,rate=0.1,raise=mix" in
  let direct =
    List.init 200 (fun i -> Faults.faulted plan ~batch:0 ~index:i)
  in
  let shuffled =
    List.rev_map
      (fun i -> Faults.faulted plan ~batch:0 ~index:i)
      (List.rev (List.init 200 Fun.id))
  in
  Helpers.check_true "decision is a pure hash of (seed, batch, index)"
    (direct = shuffled);
  Helpers.check_true "roughly rate fraction faulted"
    (let k = List.length (List.filter Fun.id direct) in
     k > 5 && k < 50)

(* ----- supervised runtime --------------------------------------------- *)

let supervised_identity () =
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let cfgs =
    List.init 12 (fun i -> scale_bitline cfg (0.8 +. (0.04 *. float_of_int i)))
  in
  List.iter
    (fun jobs ->
      let engine = Engine.create ~jobs () in
      let plain =
        Engine.map_jobs engine (fun c -> Engine.eval engine c p) cfgs
      in
      let sup = quiet () in
      let outcomes =
        Supervise.map sup engine (fun c -> Engine.eval engine c p) cfgs
      in
      Helpers.check_true
        (Printf.sprintf "jobs=%d: supervised payloads bit-identical" jobs)
        (outcomes = List.map (fun r -> Supervise.Done r) plain);
      Alcotest.(check int) "healthy run records no failures" 0
        (Supervise.counters sup).Supervise.failures)
    [ 1; 4 ]

let supervised_failure_order =
  QCheck.Test.make
    ~name:"supervise: multi-failure records deterministic, input order"
    ~count:15
    QCheck.(list_of_size (Gen.int_range 0 10) (int_range 0 39))
    (fun bad ->
      let n = 40 in
      let bad = List.sort_uniq compare bad in
      let xs = List.init n Fun.id in
      let f i = if List.mem i bad then failwith (string_of_int i) else i in
      let expected =
        List.map
          (fun i ->
            (0, i, "driver", Printexc.to_string (Failure (string_of_int i))))
          bad
      in
      List.for_all
        (fun jobs ->
          let sup = quiet () in
          let engine = Engine.create ~jobs () in
          let outcomes = Supervise.map sup engine f xs in
          let records =
            List.map
              (fun fl ->
                Supervise.
                  (fl.batch, fl.index, fl.stage, fl.message))
              (Supervise.failures sup)
          in
          records = expected
          && List.filter_map
               (function Supervise.Done v -> Some v | _ -> None)
               outcomes
             = List.filter (fun i -> not (List.mem i bad)) xs)
        [ 1; 2; 4 ])

let supervised_strict_reraise () =
  let sup = quiet ~policy:Supervise.strict_policy () in
  let engine = Engine.create ~jobs:4 () in
  (match
     Supervise.map sup engine
       (fun i -> if i >= 3 then failwith (string_of_int i) else i)
       (List.init 16 Fun.id)
   with
  | _ -> Alcotest.fail "strict supervisor must re-raise"
  | exception Failure msg ->
    Alcotest.(check string) "re-raises first failure in input order" "3" msg);
  Alcotest.(check int) "failures still recorded before the re-raise" 13
    (Supervise.counters sup).Supervise.failures

let supervised_abort_budget () =
  let sup =
    quiet
      ~policy:{ Supervise.default_policy with max_failures = Some 2 }
      ()
  in
  let engine = Engine.create ~jobs:1 () in
  (match
     Supervise.map sup engine
       (fun _ -> failwith "boom")
       (List.init 20 Fun.id)
   with
  | _ -> Alcotest.fail "expected Aborted once the budget is spent"
  | exception Supervise.Aborted { failures; tolerated } ->
    Alcotest.(check int) "tolerated budget echoed" 2 tolerated;
    Alcotest.(check int) "stopped right past the budget" 3 failures);
  Helpers.check_true "supervisor marked aborted" (Supervise.aborted sup);
  Alcotest.(check int) "only the observed failures recorded" 3
    (Supervise.counters sup).Supervise.failures

let supervised_validate_stage () =
  let sup = quiet () in
  let engine = Engine.create ~jobs:2 () in
  let check v = if Float.is_nan v then Some "non-finite sample" else None in
  let f i = if i = 5 then Float.nan else float_of_int i in
  let outcomes = Supervise.map sup engine ~check f (List.init 8 Fun.id) in
  (match Supervise.failures sup with
  | [ fl ] ->
    Alcotest.(check int) "failed index" 5 fl.Supervise.index;
    Alcotest.(check string) "classified as validate" "validate"
      fl.Supervise.stage;
    Alcotest.(check string) "rejection reason kept" "non-finite sample"
      fl.Supervise.message;
    Helpers.check_true "not flagged injected" (not fl.Supervise.injected)
  | fs -> Alcotest.failf "expected one validate failure, got %d"
            (List.length fs));
  Alcotest.(check int) "the other seven samples survive" 7
    (List.length
       (List.filter
          (function Supervise.Done _ -> true | _ -> false)
          outcomes))

let supervised_by_stage () =
  let sup = quiet () in
  let engine = Engine.create ~jobs:1 () in
  let check v = if v = 2 then Some "two is rejected" else None in
  let f i = if i = 1 then failwith "driver boom" else i in
  ignore
    (Supervise.map sup engine ~check f [ 0; 1; 2; 3 ]
      : int Supervise.outcome list);
  let c = Supervise.counters sup in
  Alcotest.(check int) "two failures" 2 c.Supervise.failures;
  Alcotest.(check (list (pair string int)))
    "per-class counters, sorted, summing to failures"
    [ ("driver", 1); ("validate", 1) ]
    c.Supervise.by_stage;
  (* classify is the single source of those class names. *)
  let stage, injected, _ = Supervise.classify (Failure "x") in
  Alcotest.(check string) "bare exception classifies as driver" "driver" stage;
  Helpers.check_true "not injected" (not injected);
  let stage, injected, _ =
    Supervise.classify (Vdram_engine.Faults.Injected ("mix", 0, 3))
  in
  Alcotest.(check string) "injected fault keeps its stage" "mix" stage;
  Helpers.check_true "flagged injected" injected

let injected_exactness () =
  (* The acceptance contract: the failure report must name exactly the
     items the pure hash says are faulted, at any job count. *)
  let plan = plan_exn "seed=11,rate=0.1,raise=mix" in
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let n = 60 in
  let cfgs =
    List.init n (fun i -> scale_bitline cfg (0.8 +. (0.005 *. float_of_int i)))
  in
  let predicted =
    List.filter
      (fun i -> Faults.faulted plan ~batch:0 ~index:i)
      (List.init n Fun.id)
  in
  Helpers.check_true "the plan faults at least one item" (predicted <> []);
  List.iter
    (fun jobs ->
      let sup = Supervise.create ~faults:plan () in
      let engine = Engine.create ~jobs () in
      ignore
        (Supervise.map sup engine (fun c -> Engine.eval engine c p) cfgs);
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d: failed set = predicted set" jobs)
        predicted
        (List.map (fun fl -> fl.Supervise.index) (Supervise.failures sup));
      List.iter
        (fun (fl : Supervise.failure) ->
          Helpers.check_true "classified injected at the mix stage"
            (fl.injected && fl.stage = "mix"))
        (Supervise.failures sup))
    [ 1; 4 ]

let stall_hits_deadline () =
  let plan = plan_exn "rate=1,stall=0.05" in
  let sup =
    Supervise.create
      ~policy:{ Supervise.default_policy with deadline = Some 0.01 }
      ~faults:plan ()
  in
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let engine = Engine.create ~jobs:1 () in
  let outcomes =
    Supervise.map sup engine
      (fun c -> Engine.eval engine c p)
      [ cfg; scale_bitline cfg 1.1 ]
  in
  Helpers.check_true "every stalled item misses its deadline"
    (List.for_all
       (function Supervise.Failed _ -> true | _ -> false)
       outcomes);
  List.iter
    (fun fl ->
      Alcotest.(check string) "classified as deadline" "deadline"
        fl.Supervise.stage;
      Helpers.check_true "elapsed time covers the stall"
        (fl.Supervise.elapsed_ns >= 40_000_000))
    (Supervise.failures sup);
  Alcotest.(check int) "deadline counter" 2
    (Supervise.counters sup).Supervise.deadline

let fail_log_schema () =
  let plan = plan_exn "seed=11,rate=0.1,raise=mix" in
  let sup = Supervise.create ~faults:plan () in
  let engine = Engine.create ~jobs:2 () in
  let cfg = base () in
  let p = Pattern.idd0 cfg.Config.spec in
  let cfgs =
    List.init 40 (fun i -> scale_bitline cfg (0.9 +. (0.004 *. float_of_int i)))
  in
  ignore (Supervise.map sup engine (fun c -> Engine.eval engine c p) cfgs);
  let json = Supervise.report_to_json ~command:"test" sup in
  let has sub =
    let n = String.length json and m = String.length sub in
    let rec go i =
      i + m <= n && (String.sub json i m = sub || go (i + 1))
    in
    go 0
  in
  List.iter
    (fun needle ->
      Helpers.check_true (Printf.sprintf "fail log carries %s" needle)
        (has needle))
    [ "\"version\": 1"; "\"command\": \"test\""; "\"keep_going\": true";
      "\"faults\": \"seed=11,rate=0.1,raise=mix\""; "\"aborted\": false";
      "\"stage\": \"mix\""; "\"injected\": true"; "\"fingerprint\"";
      "\"elapsed_ms\"" ];
  Helpers.check_true "no spurious non-injected failures"
    (not (has "\"injected\": false"));
  let clean = quiet () in
  ignore
    (Supervise.map clean engine (fun c -> Engine.eval engine c p) cfgs);
  let empty = Supervise.report_to_json ~command:"test" clean in
  Helpers.check_true "clean run reports an empty failure array"
    (let n = String.length empty in
     let sub = "\"failures\": []" in
     let m = String.length sub in
     let rec go i =
       i + m <= n && (String.sub empty i m = sub || go (i + 1))
     in
     go 0)

(* ----- drivers: serial vs parallel ----------------------------------- *)

let sensitivity_serial_parallel () =
  let cfg = base () in
  let serial = Sensitivity.run ~engine:(Engine.serial ()) cfg in
  let parallel = Sensitivity.run ~engine:(Engine.create ~jobs:4 ()) cfg in
  Helpers.check_true "sensitivity identical under --jobs 4"
    (serial = parallel)

let corners_serial_parallel () =
  let cfg = base () in
  let run engine =
    Corners.run ~engine ~samples:60 ~seed:7
      ~pattern:(Pattern.idd7_mixed cfg.Config.spec) cfg
  in
  Helpers.check_true "corners identical under --jobs 4 (same seed)"
    (run (Engine.serial ()) = run (Engine.create ~jobs:4 ()))

let corners_supervised_clean () =
  let cfg = base () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let plain =
    Corners.run ~engine:(Engine.serial ()) ~samples:40 ~seed:5 ~pattern cfg
  in
  let sup = quiet () in
  let supervised =
    Corners.run
      ~engine:(Engine.create ~jobs:4 ())
      ~supervisor:sup ~samples:40 ~seed:5 ~pattern cfg
  in
  Helpers.check_true "clean supervised corners identical to unsupervised"
    (plain = supervised);
  Alcotest.(check int) "no draws lost" 0 supervised.Corners.failed

let corners_survives_injection () =
  let plan = plan_exn "seed=7,rate=0.05,raise=mix" in
  let cfg = base () in
  let pattern = Pattern.idd7_mixed cfg.Config.spec in
  let sup = Supervise.create ~faults:plan () in
  let dist =
    Corners.run
      ~engine:(Engine.create ~jobs:2 ())
      ~supervisor:sup ~samples:60 ~seed:7 ~pattern cfg
  in
  let failed = (Supervise.counters sup).Supervise.failures in
  Helpers.check_true "the plan actually faulted some draws" (failed > 0);
  Alcotest.(check int) "distribution counts the lost draws" failed
    dist.Corners.failed;
  Alcotest.(check int) "survivors + lost = requested samples" 60
    (dist.Corners.samples + dist.Corners.failed);
  Helpers.check_true "statistics stay finite over the survivors"
    (Float.is_finite dist.Corners.mean && Float.is_finite dist.Corners.std)

let suite =
  [
    Alcotest.test_case "pool preserves input order" `Quick pool_ordering;
    Alcotest.test_case "pool re-raises first error in input order" `Quick
      pool_exception_order;
    Alcotest.test_case "chunked scheduling matches List.map" `Quick
      pool_chunked_determinism;
    Alcotest.test_case "chunked exception replay order" `Quick
      pool_chunked_exception_order;
    Alcotest.test_case "adaptive chunk size" `Quick pool_default_chunk;
    Alcotest.test_case "VDRAM_JOBS clamping" `Quick vdram_jobs_env;
    Alcotest.test_case "eval matches Model.pattern_power" `Quick
      eval_matches_model;
    Helpers.qcheck eval_determinism;
    Helpers.qcheck map_jobs_determinism;
    Helpers.qcheck base_memo_identity;
    Helpers.qcheck fingerprint_faithful;
    Helpers.qcheck delta_matches_full;
    Alcotest.test_case "delta: group sub-keys move only when dirtied" `Quick
      delta_group_keys;
    Alcotest.test_case "delta: engine path identical, counted, switchable"
      `Quick engine_delta_path;
    Alcotest.test_case "delta: sensitivity identical with delta off" `Quick
      sensitivity_delta_identity;
    Alcotest.test_case "sensitivity: serial = parallel" `Quick
      sensitivity_serial_parallel;
    Alcotest.test_case "corners: serial = parallel" `Quick
      corners_serial_parallel;
    Alcotest.test_case "fault plan grammar" `Quick faults_grammar;
    Alcotest.test_case "fault plan rejects corrupt=store" `Quick
      faults_reject_corrupt_store;
    Alcotest.test_case "faulted set is order-free" `Quick
      faulted_is_order_free;
    Alcotest.test_case "supervised = unsupervised on healthy runs" `Quick
      supervised_identity;
    Helpers.qcheck supervised_failure_order;
    Alcotest.test_case "strict policy re-raises in input order" `Quick
      supervised_strict_reraise;
    Alcotest.test_case "failure budget aborts the batch" `Quick
      supervised_abort_budget;
    Alcotest.test_case "check rejection is a validate failure" `Quick
      supervised_validate_stage;
    Alcotest.test_case "failure classes roll up by stage" `Quick
      supervised_by_stage;
    Alcotest.test_case "injected failures match the hash prediction" `Quick
      injected_exactness;
    Alcotest.test_case "stalled items miss their deadline" `Quick
      stall_hits_deadline;
    Alcotest.test_case "fail-log schema v1" `Quick fail_log_schema;
    Alcotest.test_case "corners: supervised clean run identical" `Quick
      corners_supervised_clean;
    Alcotest.test_case "corners: partial results under injection" `Quick
      corners_survives_injection;
  ]
