(* Analysis: lenses, sensitivity (Fig 10 / Table III), trends
   (Figs 11-13), sweeps. *)

open Vdram_analysis
module Config = Vdram_core.Config
module Node = Vdram_tech.Node

let test_lenses_roundtrip () =
  let cfg = Lazy.force Helpers.ddr3_1g in
  List.iter
    (fun lens ->
      match lens.Lenses.name with
      | "number of logic gates" | "width NFET logic" | "width PFET logic"
      | "logic device density" | "logic wiring density"
      | "transistors per logic gate" ->
        () (* aggregates report scale 1.0, not a value *)
      | name ->
        let v = lens.Lenses.get cfg in
        let cfg' = lens.Lenses.set cfg (v *. 2.0) in
        Helpers.close (name ^ " set doubles get") (2.0 *. v)
          (lens.Lenses.get cfg'))
    Lenses.all

let test_lens_count () =
  (* 38 technology + 8 voltage-ish + 6 logic + 4 interface lenses. *)
  Alcotest.(check int) "lens inventory" 56 (List.length Lenses.all);
  Helpers.check_true "find works"
    (Lenses.find "internal voltage Vint" <> None);
  Helpers.check_true "find missing" (Lenses.find "warp drive" = None)

let test_sensitivity_ddr3 () =
  let s = Sensitivity.run (Lazy.force Helpers.ddr3_2g) in
  (match s.Sensitivity.entries with
   | first :: _ ->
     Alcotest.(check string) "Vint ranks first (Table III)"
       "internal voltage Vint" first.Sensitivity.lens_name
   | [] -> Alcotest.fail "no entries");
  (* Raising a capacitance raises power; thinning oxide raises power
     (thicker oxide lowers gate cap). *)
  let span name =
    (List.find (fun e -> e.Sensitivity.lens_name = name)
       s.Sensitivity.entries)
      .Sensitivity.span_percent
  in
  Helpers.check_true "bitline cap span positive" (span "bitline capacitance" > 0.0);
  Helpers.check_true "oxide span negative"
    (span "gate oxide thickness logic" < 0.0);
  Helpers.check_true "efficiency span negative"
    (span "generator efficiency Vint" < 0.0);
  Helpers.check_true "Vdd excluded by default"
    (not
       (List.exists
          (fun e -> e.Sensitivity.lens_name = "external voltage Vdd")
          s.Sensitivity.entries))

let test_table3_vint_first () =
  List.iter
    (fun cfg ->
      let s = Sensitivity.run cfg in
      match Sensitivity.top 1 s with
      | [ e ] ->
        Alcotest.(check string)
          (cfg.Config.name ^ ": Vint first")
          "internal voltage Vint" e.Sensitivity.lens_name
      | _ -> Alcotest.fail "no top entry")
    Vdram_configs.Devices.table3_devices

let rank_of s name =
  let rec go i = function
    | [] -> None
    | e :: rest ->
      if e.Sensitivity.lens_name = name then Some i else go (i + 1) rest
  in
  go 1 s.Sensitivity.entries

let test_table3_shift () =
  (* The paper's Table III narrative: importance shifts from array
     parameters to wiring and logic across generations. *)
  let old_dev = Sensitivity.run (Lazy.force Helpers.sdr_128m) in
  let new_dev = Sensitivity.run (Lazy.force Helpers.ddr5_16g) in
  let r s n = Option.value ~default:99 (rank_of s n) in
  Helpers.check_true "bitline voltage falls in rank"
    (r old_dev "bitline voltage" < r new_dev "bitline voltage");
  Helpers.check_true "wire capacitance rises in rank"
    (r new_dev "specific wire capacitance signaling"
    <= r old_dev "specific wire capacitance signaling");
  (* Top-10 membership per the paper's table. *)
  List.iter
    (fun name ->
      Helpers.check_true (name ^ " in DDR5 top 10")
        (r new_dev name <= 10))
    [ "internal voltage Vint"; "number of logic gates";
      "specific wire capacitance signaling"; "width NFET logic";
      "width PFET logic" ]

let test_sensitivity_variation () =
  let cfg = Lazy.force Helpers.ddr3_1g in
  let s = Sensitivity.run ~variation:0.10 cfg in
  let s20 = Sensitivity.run ~variation:0.20 cfg in
  let top10 = List.hd s.Sensitivity.entries
  and top20 = List.hd s20.Sensitivity.entries in
  Helpers.check_true "larger variation, larger span"
    (Float.abs top20.Sensitivity.span_percent
    > Float.abs top10.Sensitivity.span_percent)

let test_trends () =
  let pts = Trends.all () in
  Alcotest.(check int) "14 generations" 14 (List.length pts);
  let rec pairs = function
    | a :: (b :: _ as rest) -> (a, b) :: pairs rest
    | _ -> []
  in
  List.iter
    (fun ((a : Trends.point), (b : Trends.point)) ->
      Helpers.check_true "Fig 11: vdd non-increasing"
        (b.Trends.vdd <= a.Trends.vdd +. 1e-9);
      Helpers.check_true "Fig 12: datarate non-decreasing"
        (b.Trends.datarate >= a.Trends.datarate);
      Helpers.check_true "Fig 13: energy/bit falls"
        (b.Trends.energy_per_bit_idd7 < a.Trends.energy_per_bit_idd7))
    (pairs pts);
  List.iter
    (fun (p : Trends.point) ->
      let mm2 = p.Trends.die_area *. 1e6 in
      Helpers.check_true
        (Printf.sprintf "die area %s plausible (%.1f mm2)"
           (Node.name p.Trends.node) mm2)
        (mm2 > 15.0 && mm2 < 75.0);
      Helpers.check_true "idd4 energy below idd7 energy"
        (p.Trends.energy_per_bit_idd4 < p.Trends.energy_per_bit_idd7))
    pts

let test_reduction_factors () =
  let pts = Trends.all () in
  let early =
    Trends.reduction_factor pts (fun n ->
        Node.index n <= Node.index Node.N44)
  and late =
    Trends.reduction_factor pts (fun n ->
        Node.index n >= Node.index Node.N44)
  in
  (* Paper: ~1.5x per generation 2000-2010, ~1.2x forecast. *)
  Helpers.check_true
    (Printf.sprintf "early reduction strong (%.2f)" early)
    (early > 1.25 && early < 1.6);
  Helpers.check_true
    (Printf.sprintf "late reduction weak (%.2f)" late)
    (late > 1.1 && late < 1.35);
  Helpers.check_true "the curve flattens (paper's headline)" (late < early)

let test_category_shares_shift () =
  let shares = Trends.category_shares () in
  Alcotest.(check int) "all generations" 14 (List.length shares);
  let share node cat =
    match List.assoc_opt cat (List.assq node shares) with
    | Some s -> s
    | None -> 0.0
  in
  (* Section VI: array share falls, clocking/interface/data rise. *)
  Helpers.check_true "array share falls 170nm -> 16nm"
    (share Node.N16 Vdram_core.Report.Array
    < share Node.N170 Vdram_core.Report.Array);
  Helpers.check_true "clocking share rises"
    (share Node.N16 Vdram_core.Report.Clocking
    > share Node.N170 Vdram_core.Report.Clocking);
  (* Shares are a partition of unity. *)
  List.iter
    (fun (node, cats) ->
      let sum = List.fold_left (fun a (_, s) -> a +. s) 0.0 cats in
      Helpers.close_rel ~rel:1e-6
        (Node.name node ^ " shares sum to 1")
        1.0 sum)
    shares

let test_sweep () =
  let cfg = Lazy.force Helpers.ddr3_1g in
  let lens = Option.get (Lenses.find "bitline voltage") in
  let sweep =
    Sweep.run_relative ~lens ~factors:[ 0.8; 1.0; 1.2 ] cfg
  in
  (match sweep.Sweep.samples with
   | [ a; b; c ] ->
     Helpers.check_true "monotone sweep"
       (a.Sweep.power < b.Sweep.power && b.Sweep.power < c.Sweep.power)
   | _ -> Alcotest.fail "expected three samples");
  Alcotest.(check string) "sweep names lens" "bitline voltage"
    sweep.Sweep.lens_name

let test_corners () =
  let cfg = Lazy.force Helpers.ddr3_1g in
  let d = Corners.run ~samples:60 ~spread:0.10 ~seed:7 cfg in
  let nominal = Vdram_core.Model.idd cfg (Vdram_core.Pattern.idd4r cfg.Config.spec) in
  Helpers.check_true "mean near nominal"
    (Float.abs (d.Corners.mean -. nominal) /. nominal < 0.08);
  Helpers.check_true "ordered summary"
    (d.Corners.min <= d.Corners.p05
    && d.Corners.p05 <= d.Corners.mean +. d.Corners.std
    && d.Corners.p95 <= d.Corners.max);
  Helpers.check_true "nominal covered" (Corners.covers d nominal);
  (* Deterministic: same seed, same distribution. *)
  let d2 = Corners.run ~samples:60 ~spread:0.10 ~seed:7 cfg in
  Helpers.close "reproducible mean" d.Corners.mean d2.Corners.mean;
  (* Wider spread, wider distribution. *)
  let wide = Corners.run ~samples:60 ~spread:0.20 ~seed:7 cfg in
  Helpers.check_true "spread widens range"
    (wide.Corners.max -. wide.Corners.min
    > d.Corners.max -. d.Corners.min)

let test_corners_explain_vendor_spread () =
  (* The paper's story: technology + implementation differences explain
     the datasheet spread.  A +-12% parameter band must cover the whole
     vendor range of a representative Fig 9 point. *)
  let family = Vdram_datasheets.Idd.ddr3_1g in
  let point =
    List.find
      (fun (p : Vdram_datasheets.Idd.point) ->
        p.Vdram_datasheets.Idd.test = Vdram_datasheets.Idd.Idd4r
        && p.Vdram_datasheets.Idd.datarate_mbps = 1066
        && p.Vdram_datasheets.Idd.io_width = 16)
      family.Vdram_datasheets.Idd.points
  in
  let cfg =
    Vdram_configs.Devices.ddr3_1g ~io_width:16 ~datarate:1.066e9
      ~node:Node.N65 ()
  in
  let d = Corners.run ~samples:120 ~spread:0.12 ~seed:3 cfg in
  let spread_ratio =
    (d.Corners.max -. d.Corners.min) /. d.Corners.mean
  in
  let vendor_ratio =
    (Vdram_datasheets.Idd.max_ma point -. Vdram_datasheets.Idd.min_ma point)
    /. Vdram_datasheets.Idd.mean_ma point
  in
  Helpers.check_true
    (Printf.sprintf "parameter spread (%.2f) reaches vendor spread (%.2f)"
       spread_ratio vendor_ratio)
    (spread_ratio > 0.7 *. vendor_ratio)

(* Records compared by their marshalled bytes, which hold every float
   field as its IEEE bits (and every other field as is). *)
let bits v = Marshal.to_string v [ Marshal.No_sharing ]

let same_config (a : Config.t) (b : Config.t) = String.equal (bits a) (bits b)

let scale_all_is_fold =
  let lenses = Array.of_list Lenses.all in
  let n = Array.length lenses in
  (* Random picks of lenses in random order; a lens picked twice must
     be scaled twice, in pick order. *)
  QCheck.Test.make ~name:"Lenses.scale_all is the fold of scale" ~count:200
    QCheck.(
      list_of_size Gen.(0 -- (2 * n))
        (pair (int_bound (n - 1)) (float_range 0.5 1.5)))
    (fun picks ->
      let chosen = Array.of_list (List.map (fun (i, _) -> lenses.(i)) picks) in
      let factors = Array.of_list (List.map snd picks) in
      let cfg = Lazy.force Helpers.ddr3_1g in
      let fold =
        List.fold_left
          (fun acc (i, f) -> Lenses.scale lenses.(i) f acc)
          cfg picks
      in
      same_config (Lenses.scale_all chosen factors cfg) fold)

let test_params_of_array () =
  let module P = Vdram_tech.Params in
  let t = P.reference in
  let values = Array.of_list (List.map (fun (_, get, _) -> get t) P.fields) in
  Helpers.check_true "the unchanged values rebuild the record"
    (bits (P.of_array t values) = bits t);
  List.iteri
    (fun i (name, _, set) ->
      let v = values.(i) *. 1.5 in
      let a = Array.copy values in
      a.(i) <- v;
      Helpers.check_true (name ^ ": index matches its setter")
        (bits (P.of_array t a) = bits (set t v)))
    P.fields;
  Alcotest.check_raises "one value per field"
    (Invalid_argument "Params.of_array: need one value per field") (fun () ->
      ignore (P.of_array t [| 1.0 |]))

(* The lenses write pairwise disjoint fields, so any two commute.
   Abox.field's soundness and the corner sampler's efficiency cap both
   rest on this. *)
let test_lenses_commute () =
  let cfg = Lazy.force Helpers.ddr3_1g in
  List.iter
    (fun a ->
      let after_a = Lenses.scale a 1.25 cfg in
      List.iter
        (fun b ->
          if a != b then
            Helpers.check_true
              (Printf.sprintf "%s / %s commute" a.Lenses.name b.Lenses.name)
              (same_config
                 (Lenses.scale b 0.8 after_a)
                 (Lenses.scale a 1.25 (Lenses.scale b 0.8 cfg))))
        Lenses.all)
    Lenses.all

(* The corner sampler as it was before draws became factor vectors:
   one fold of [Lenses.scale] per draw, each configuration evaluated
   by the monolithic model, the same summary.  Kept as the reference
   [Corners.run] must reproduce bit for bit. *)
let reference_corners ~samples ~spread ~seed ~pattern cfg =
  let state = ref (Int64.of_int (max 1 seed)) in
  let next_float () =
    state :=
      Int64.add (Int64.mul !state 6364136223846793005L) 1442695040888963407L;
    let r = Int64.to_int (Int64.shift_right_logical !state 17) in
    float_of_int (r mod 1_000_000) /. 1_000_000.0
  in
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
          if
            String.length lens.Lenses.name >= 10
            && String.sub lens.Lenses.name 0 10 = "generator "
          then Float.min f (1.0 /. Float.max 1e-9 (lens.Lenses.get acc))
          else f
        in
        Lenses.scale lens f acc)
      cfg lenses
  in
  let configs = List.init samples (fun _ -> sample ()) in
  let values =
    List.map
      (fun c -> (Vdram_core.Model.pattern_power c pattern).Vdram_core.Report.current)
      configs
  in
  let sorted = List.sort Float.compare values in
  let n = float_of_int samples in
  let mean = List.fold_left ( +. ) 0.0 values /. n in
  let var =
    List.fold_left (fun a v -> a +. ((v -. mean) ** 2.0)) 0.0 values /. n
  in
  let nth q =
    List.nth sorted
      (min (samples - 1) (int_of_float (q *. float_of_int (samples - 1))))
  in
  {
    Corners.samples;
    failed = 0;
    spread;
    mean;
    std = sqrt var;
    min = List.hd sorted;
    max = List.nth sorted (samples - 1);
    p05 = nth 0.05;
    p95 = nth 0.95;
  }

let check_distribution what (expected : Corners.distribution)
    (actual : Corners.distribution) =
  Alcotest.(check int) (what ^ ": samples") expected.samples actual.samples;
  Alcotest.(check int) (what ^ ": failed") expected.failed actual.failed;
  List.iter
    (fun (field, e, a) ->
      Alcotest.(check int64)
        (Printf.sprintf "%s: %s bits" what field)
        (Int64.bits_of_float e) (Int64.bits_of_float a))
    [
      ("spread", expected.spread, actual.spread);
      ("mean", expected.mean, actual.mean);
      ("std", expected.std, actual.std);
      ("min", expected.min, actual.min);
      ("max", expected.max, actual.max);
      ("p05", expected.p05, actual.p05);
      ("p95", expected.p95, actual.p95);
    ]

let test_corners_pinned () =
  let cfg = Lazy.force Helpers.ddr3_2g in
  let pattern = Vdram_core.Pattern.idd4r cfg.Config.spec in
  let samples = 150 and spread = 0.10 in
  List.iter
    (fun seed ->
      let expected = reference_corners ~samples ~spread ~seed ~pattern cfg in
      List.iter
        (fun jobs ->
          let engine = Vdram_engine.Engine.create ~jobs () in
          let run ?supervisor () =
            Corners.run ~engine ?supervisor ~samples ~spread ~seed ~pattern cfg
          in
          let what = Printf.sprintf "seed %d, jobs %d" seed jobs in
          check_distribution what expected (run ());
          let supervisor =
            Vdram_engine.Supervise.create ~faults:Vdram_engine.Faults.none ()
          in
          check_distribution (what ^ ", supervised") expected (run ~supervisor ()))
        [ 1; 2 ])
    [ 1; 2; 2027 ];
  (* No spread: every draw is the nominal device. *)
  let nominal = (Vdram_core.Model.pattern_power cfg pattern).Vdram_core.Report.current in
  let d = Corners.run ~samples:20 ~spread:0.0 ~pattern cfg in
  Alcotest.(check int64) "spread 0: min is nominal" (Int64.bits_of_float nominal)
    (Int64.bits_of_float d.Corners.min);
  Alcotest.(check int64) "spread 0: max is nominal" (Int64.bits_of_float nominal)
    (Int64.bits_of_float d.Corners.max)

let count_lines s =
  String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 s

let test_csv () =
  let pts = Trends.all () in
  let csv = Csv.trends pts in
  Alcotest.(check int) "trends rows" (1 + List.length pts) (count_lines csv);
  Helpers.check_true "trends header"
    (String.length csv > 7 && String.sub csv 0 7 = "node_nm");
  let s = Sensitivity.run ~lenses:[ Option.get (Lenses.find "bitline voltage") ]
      (Lazy.force Helpers.ddr3_1g)
  in
  Alcotest.(check int) "sensitivity rows" 2 (count_lines (Csv.sensitivity s));
  let rows = Vdram_datasheets.Compare.fig9 () in
  Alcotest.(check int) "verification rows" (1 + List.length rows)
    (count_lines (Csv.verification rows));
  let abl = Ablation.bitline_style ~node:Node.N55 () in
  Alcotest.(check int) "ablation rows" 3 (count_lines (Csv.ablation abl));
  (* write_file round trip *)
  let path = Filename.temp_file "vdram_csv" ".csv" in
  Csv.write_file path csv;
  let read = In_channel.with_open_text path In_channel.input_all in
  Alcotest.(check string) "file round trip" csv read;
  Sys.remove path

let sensitivity_antisymmetric =
  QCheck.Test.make ~name:"spans change sign with direction" ~count:10
    QCheck.(int_range 0 9)
    (fun idx ->
      let cfg = Lazy.force Helpers.ddr3_1g in
      let lens = List.nth Lenses.voltages (idx mod List.length Lenses.voltages) in
      if lens.Lenses.name = "external voltage Vdd" then true
      else begin
        let s = Sensitivity.run ~lenses:[ lens ] cfg in
        match s.Sensitivity.entries with
        | [ e ] ->
          (* power(+20%) and power(-20%) must bracket nominal. *)
          (e.Sensitivity.power_plus -. s.Sensitivity.nominal_power)
          *. (e.Sensitivity.power_minus -. s.Sensitivity.nominal_power)
          <= 1e-12
        | _ -> false
      end)

let corners_always_finite =
  QCheck.Test.make ~name:"corner samples are finite and positive" ~count:8
    QCheck.(pair (int_range 1 10000) (float_range 0.02 0.25))
    (fun (seed, spread) ->
      let cfg = Lazy.force Helpers.ddr3_1g in
      let d = Corners.run ~samples:25 ~spread ~seed cfg in
      Float.is_finite d.Corners.mean
      && d.Corners.min > 0.0
      && d.Corners.max >= d.Corners.min)

let suite =
  [
    Alcotest.test_case "lens get/set" `Quick test_lenses_roundtrip;
    Alcotest.test_case "lens inventory" `Quick test_lens_count;
    Alcotest.test_case "DDR3 sensitivity signs" `Slow test_sensitivity_ddr3;
    Alcotest.test_case "Table III: Vint first on all devices" `Slow
      test_table3_vint_first;
    Alcotest.test_case "Table III: array-to-wiring shift" `Slow
      test_table3_shift;
    Alcotest.test_case "variation scaling" `Slow test_sensitivity_variation;
    Alcotest.test_case "trends (Figs 11-13)" `Slow test_trends;
    Alcotest.test_case "Fig 13 reduction factors" `Slow
      test_reduction_factors;
    Alcotest.test_case "category shares shift (Section VI)" `Slow
      test_category_shares_shift;
    Alcotest.test_case "parameter sweep" `Quick test_sweep;
    Alcotest.test_case "Params.of_array matches the setters" `Quick
      test_params_of_array;
    Alcotest.test_case "lenses commute" `Quick test_lenses_commute;
    Alcotest.test_case "process corners" `Slow test_corners;
    Alcotest.test_case "corners pinned to the fold-of-scale sampler" `Slow
      test_corners_pinned;
    Alcotest.test_case "corners explain vendor spread" `Slow
      test_corners_explain_vendor_spread;
    Alcotest.test_case "CSV emitters" `Slow test_csv;
    Helpers.qcheck sensitivity_antisymmetric;
    Helpers.qcheck corners_always_finite;
    Helpers.qcheck scale_all_is_fold;
  ]
