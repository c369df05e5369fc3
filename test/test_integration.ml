(* Cross-module integration: DSL -> model -> analysis -> simulator. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Spec = Vdram_core.Spec

let sample_dram = {|
# 1 Gb DDR3 x16 described from scratch
Device
Part name=integration_ddr3 node=65nm

Specification
IO width=16 datarate=1.066Gbps
Control frequency=533MHz
Density mbits=1024
Banks number=8
Burst length=8 prefetch=8
Timing trc=55ns trcd=16.5ns trp=16.5ns

FloorplanPhysical
CellArray BitsPerBL=512 BitsPerLWL=512 BLtype=open Page=16384

Voltages
Supply vdd=1.5V vint=1.4V vbl=1.2V vpp=2.8V

Pattern
Pattern loop= act nop wrt nop rd nop pre nop
|}

let test_dsl_matches_api () =
  match Vdram_dsl.Elaborate.load_string sample_dram with
  | Error e ->
    Alcotest.failf "elaborate: %s" (Format.asprintf "%a" Vdram_dsl.Parser.pp_error e)
  | Ok { Vdram_dsl.Elaborate.config; pattern } ->
    let api =
      Vdram_configs.Devices.ddr3_1g ~io_width:16 ~datarate:1.066e9
        ~node:Vdram_tech.Node.N65 ()
    in
    let p = Option.get pattern in
    let from_dsl = Helpers.power config p and from_api = Helpers.power api p in
    (* Same device described two ways: within a few percent (the DSL
       text rounds some numbers). *)
    Helpers.check_true
      (Printf.sprintf "DSL vs API power (%.1f vs %.1f mW)"
         (from_dsl *. 1e3) (from_api *. 1e3))
      (Float.abs (from_dsl -. from_api) /. from_api < 0.05)

let test_dsl_to_sensitivity () =
  match Vdram_dsl.Elaborate.load_string sample_dram with
  | Error _ -> Alcotest.fail "elaborate failed"
  | Ok { Vdram_dsl.Elaborate.config; _ } ->
    let s = Vdram_analysis.Sensitivity.run config in
    (match Vdram_analysis.Sensitivity.top 1 s with
     | [ e ] ->
       Alcotest.(check string) "Vint first via DSL too"
         "internal voltage Vint" e.Vdram_analysis.Sensitivity.lens_name
     | _ -> Alcotest.fail "no entries")

let test_dsl_to_simulator () =
  match Vdram_dsl.Elaborate.load_string sample_dram with
  | Error _ -> Alcotest.fail "elaborate failed"
  | Ok { Vdram_dsl.Elaborate.config; _ } ->
    let trace =
      Vdram_sim.Trace.streaming ~requests:1000 ~arrival_gap:4
        ~banks:config.Config.spec.Spec.banks ~rows:256 ~columns:64
        ~write_fraction:0.25
    in
    let run = Vdram_sim.Sim.simulate config trace in
    Helpers.check_positive "simulated energy"
      run.Vdram_sim.Sim.energy.Vdram_sim.Energy_model.energy

let test_example_file_on_disk () =
  (* Every description the repository ships must load and model. *)
  List.iter
    (fun name ->
      let path = Filename.concat "../examples" name in
      if Sys.file_exists path then
        match Vdram_dsl.Elaborate.load_file path with
        | Ok { Vdram_dsl.Elaborate.config; pattern } ->
          let p =
            Option.value ~default:Pattern.paper_example pattern
          in
          Helpers.check_positive ("power from " ^ name)
            (Helpers.power config p)
        | Error e ->
          Alcotest.failf "%s rejected: %s" name
            (Format.asprintf "%a" Vdram_dsl.Parser.pp_error e)
      else () (* running outside the source tree *))
    [ "ddr3_1gb.dram"; "sdr_128m.dram"; "ddr5_16g.dram";
      "lpddr_mobile.dram" ]

let test_pattern_equivalence () =
  (* Per-operation energies recombine into pattern power: computing
     the paper-example loop by hand matches the model. *)
  let cfg = Lazy.force Helpers.ddr3_1g in
  let spec = cfg.Config.spec in
  let loop_time = 8.0 /. spec.Spec.control_clock in
  let e op = Vdram_core.Operation.energy cfg op in
  let by_hand =
    Model.background_power cfg
    +. ((e Vdram_core.Operation.Activate +. e Vdram_core.Operation.Precharge
         +. e Vdram_core.Operation.Read +. e Vdram_core.Operation.Write)
        /. loop_time)
  in
  Helpers.close_rel ~rel:1e-9 "pattern power recombines" by_hand
    (Helpers.power cfg Pattern.paper_example)

let test_sim_agrees_with_idd4 () =
  (* A saturated streaming read trace approaches the Idd4R pattern. *)
  let cfg = Lazy.force Helpers.ddr3_1g in
  let spec = cfg.Config.spec in
  let trace =
    Vdram_sim.Trace.streaming ~requests:4000
      ~arrival_gap:(Spec.clocks_per_column_command spec)
      ~banks:spec.Spec.banks ~rows:512 ~columns:128 ~write_fraction:0.0
  in
  let run = Vdram_sim.Sim.simulate cfg trace in
  let sim_power = run.Vdram_sim.Sim.energy.Vdram_sim.Energy_model.average_power in
  let idd4r_power = Helpers.power cfg (Pattern.idd4r spec) in
  Helpers.check_true
    (Printf.sprintf "simulated stream near Idd4R (%.0f vs %.0f mW)"
       (sim_power *. 1e3) (idd4r_power *. 1e3))
    (sim_power > idd4r_power *. 0.7 && sim_power < idd4r_power *. 1.3)

let test_cli_bad_datarate () =
  (* The one-shot CLI, run as a process: an unparseable data rate must
     exit 2 with a diagnostic, and print no device. *)
  let exe = "../bin/vdram.exe" in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe
      [| exe; "power"; "--node"; "55nm"; "--datarate"; "garbage" |]
      Unix.stdin out_w err_w
  in
  Unix.close out_w;
  Unix.close err_w;
  let read fd = In_channel.input_all (Unix.in_channel_of_descr fd) in
  let stdout = read out_r in
  let stderr = read err_r in
  let status = snd (Unix.waitpid [] pid) in
  Helpers.check_true "exit 2" (status = Unix.WEXITED 2);
  Alcotest.(check string) "nothing on stdout" "" stdout;
  Helpers.check_true
    (Printf.sprintf "stderr names the value: %S" stderr)
    (String.trim stderr = "vdram: bad datarate \"garbage\"")

let suite =
  [
    Alcotest.test_case "DSL matches API-built device" `Quick
      test_dsl_matches_api;
    Alcotest.test_case "DSL feeds sensitivity" `Slow test_dsl_to_sensitivity;
    Alcotest.test_case "DSL feeds simulator" `Quick test_dsl_to_simulator;
    Alcotest.test_case "shipped example description" `Quick
      test_example_file_on_disk;
    Alcotest.test_case "pattern power recombination" `Quick
      test_pattern_equivalence;
    Alcotest.test_case "simulator agrees with Idd4R" `Quick
      test_sim_agrees_with_idd4;
    Alcotest.test_case "cli: unparseable --datarate exits 2" `Quick
      test_cli_bad_datarate;
  ]
