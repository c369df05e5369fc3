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

(* The one-shot CLI, run as a process: exit status, stdout, stderr.
   [input], when given, is the child's standard input. *)
let run_exe ?input exe args =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let in_r, in_w =
    match input with
    | None -> (Unix.stdin, None)
    | Some _ ->
      let r, w = Unix.pipe ~cloexec:true () in
      (r, Some w)
  in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) in_r out_w err_w
  in
  Unix.close out_w;
  Unix.close err_w;
  (match (input, in_w) with
   | Some text, Some w ->
     Unix.close in_r;
     let oc = Unix.out_channel_of_descr w in
     output_string oc text;
     close_out oc
   | _ -> ());
  let read fd = In_channel.input_all (Unix.in_channel_of_descr fd) in
  let stdout = read out_r in
  let stderr = read err_r in
  (snd (Unix.waitpid [] pid), stdout, stderr)

let run_cli ?input = run_exe ?input "../bin/vdram.exe"

(* A bad value exits 2 with one diagnostic naming it, and prints no
   device. *)
let check_usage_error args message =
  let status, stdout, stderr = run_cli args in
  let what = String.concat " " args in
  Helpers.check_true (what ^ ": exit 2") (status = Unix.WEXITED 2);
  Alcotest.(check string) (what ^ ": nothing on stdout") "" stdout;
  Alcotest.(check string) (what ^ ": stderr") ("vdram: " ^ message)
    (String.trim stderr)

let test_cli_bad_datarate () =
  check_usage_error
    [ "power"; "--node"; "55nm"; "--datarate"; "garbage" ]
    "bad datarate \"garbage\""

let test_cli_bad_knobs () =
  (* Out-of-range knobs are rejected by the shared resolution instead
     of escaping as exceptions from the device constructors. *)
  List.iter
    (fun (args, message) -> check_usage_error ("power" :: args) message)
    [
      ([ "--io-width"; "0" ], "bad I/O width 0 (must be at least 1)");
      ([ "--io-width=-4" ], "bad I/O width -4 (must be at least 1)");
      ( [ "--density-mbits"; "0" ],
        "bad density 0 Mbit (must be finite and positive)" );
      ( [ "--density-mbits=-5" ],
        "bad density -5 Mbit (must be finite and positive)" );
      ( [ "--density-mbits"; "nan" ],
        "bad density nan Mbit (must be finite and positive)" );
      ( [ "--density-mbits"; "0.5" ],
        "bad device: Array_geometry.derive: bank not a whole number of \
         sub-array rows" );
      ([ "--datarate"; "0Gbps" ], "bad datarate \"0Gbps\"");
      ([ "--node"; "nan" ], "bad node \"nan\"");
      ([ "--pattern"; "act bogus" ], "unknown command \"bogus\" in pattern");
    ];
  (* Corners knobs are checked before any device is built. *)
  List.iter
    (fun (args, message) ->
      check_usage_error ("corners" :: "--node" :: "55nm" :: args) message)
    [
      ([ "--samples"; "0" ], "bad samples 0 (must be at least 1)");
      ( [ "--spread"; "1.5" ],
        "bad spread 1.5 (must be finite, at least 0 and below 1)" );
      ( [ "--spread"; "nan" ],
        "bad spread nan (must be finite, at least 0 and below 1)" );
      ( [ "--spread=-0.1" ],
        "bad spread -0.1 (must be finite, at least 0 and below 1)" );
    ];
  (* Check knobs go through Check.validate, lens ranges must be finite;
     both are rejected before any file is read. *)
  List.iter
    (fun (args, message) ->
      check_usage_error (("check" :: args) @ [ "../examples/sdr_128m.dram" ])
        message)
    [
      ([ "--cells=-3" ], "bad cells -3 (must be at least 4)");
      ([ "--cells=0" ], "bad cells 0 (must be at least 4)");
      ([ "--splits=-2" ], "bad splits -2 (must be at least 0)");
      ([ "--samples=-5" ], "bad samples -5 (must be at least 0)");
      ( [ "--lens"; "bitline capacitance=1:inf" ],
        "bad range \"1:inf\" (want finite 0 < LO <= HI)" );
    ];
  (* Advise's threshold goes through Advise.validate. *)
  List.iter
    (fun (args, message) ->
      check_usage_error
        (("advise" :: args) @ [ "../examples/inefficient.dram" ])
        message)
    [
      ( [ "--waste-threshold"; "nan" ],
        "bad waste-threshold nan (must be finite, at least 0 and below 1)" );
      ( [ "--waste-threshold=-1" ],
        "bad waste-threshold -1 (must be finite, at least 0 and below 1)" );
      ( [ "--waste-threshold"; "1" ],
        "bad waste-threshold 1 (must be finite, at least 0 and below 1)" );
    ];
  (* A certificate path without --certify would be silently ignored. *)
  check_usage_error
    [ "check"; "--out"; "cert.json"; "../examples/sdr_128m.dram" ]
    "--out only makes sense with --certify";
  (* A description file's error names the file. *)
  check_usage_error
    [ "power"; "fixtures/fixable.dram" ]
    "fixtures/fixable.dram: line 11: unknown technology parameter \
     \"cbitlinez\" [V0201]"

(* lint, check and advise as processes over every shipped and fixture
   description: the exit code and the JSON totals are those of the
   in-process analyses, --allow drops a warning code and rejects an
   unknown one, "-" reads standard input, and the fix loop either
   previews (file untouched) or rewrites the file in place. *)
let test_cli_analyses () =
  let module Lint = Vdram_lint.Lint in
  let module Json = Vdram_json.Json in
  let dram dir =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dram")
    |> List.sort compare
    |> List.map (Filename.concat dir)
  in
  let files = dram "../examples" @ dram "fixtures" in
  let analyses =
    [
      ("lint", fun file src -> Lint.run ?file src);
      ("check", fun file src -> (Vdram_lint.Check.run ?file src).report);
      ("advise", fun file src -> (Vdram_lint.Advise.run ?file src).report);
    ]
  in
  let read f = In_channel.with_open_text f In_channel.input_all in
  let exit_is what code status =
    Helpers.check_true
      (Printf.sprintf "%s: exit %d" what code)
      (status = Unix.WEXITED code)
  in
  let totals what stdout (r : Lint.report) =
    let j = Helpers.json stdout in
    let count k = Option.get (Json.int_ (Helpers.at [ k ] j)) in
    Alcotest.(check int) (what ^ ": errors") (Lint.errors r) (count "errors");
    Alcotest.(check int) (what ^ ": warnings") (Lint.warnings r)
      (count "warnings")
  in
  List.iter
    (fun (cmd, analyse) ->
      List.iter
        (fun f ->
          let r = analyse (Some f) (read f) in
          let what = String.concat " " [ cmd; f ] in
          let status, _, _ = run_cli [ cmd; f ] in
          exit_is what (Lint.exit_code [ r ]) status;
          let status, _, _ = run_cli [ cmd; "--deny-warnings"; f ] in
          exit_is (what ^ " --deny-warnings")
            (Lint.exit_code ~deny_warnings:true [ r ])
            status;
          let _, stdout, _ = run_cli [ cmd; "--format"; "json"; f ] in
          totals (what ^ " --format json") stdout r;
          (match
             List.find_opt
               (fun d -> not (Vdram_diagnostics.Diagnostic.is_error d))
               r.Lint.diagnostics
           with
           | None -> ()
           | Some d ->
             let code = d.Vdram_diagnostics.Diagnostic.code in
             let _, stdout, _ =
               run_cli [ cmd; "--format"; "json"; "--allow"; code; f ]
             in
             totals (what ^ " --allow " ^ code) stdout
               (Lint.suppress ~codes:[ code ] r);
             Helpers.check_true (what ^ ": " ^ code ^ " suppressed")
               (not (Helpers.contains stdout ("\"" ^ code ^ "\""))));
          let status, stdout, stderr =
            run_cli [ cmd; "--allow"; "V9999"; f ]
          in
          exit_is (what ^ " --allow V9999") 124 status;
          Alcotest.(check string) (what ^ ": nothing on stdout") "" stdout;
          Helpers.check_true (what ^ ": unknown code named")
            (Helpers.contains stderr "unknown lint code \"V9999\""))
        files;
      let source = read "../examples/ddr3_1gb.dram" in
      let status, stdout, _ =
        run_cli ~input:source [ cmd; "--format"; "json"; "-" ]
      in
      let r = analyse None source in
      exit_is (cmd ^ " -") (Lint.exit_code [ r ]) status;
      totals (cmd ^ " - (stdin)") stdout r)
    analyses;
  (* The fix loop, on temporary copies. *)
  List.iter
    (fun (cmd, original) ->
      let copy = Filename.temp_file "vdram_fix" ".dram" in
      Fun.protect
        ~finally:(fun () -> Sys.remove copy)
        (fun () ->
          let source = read original in
          let write () =
            Out_channel.with_open_text copy (fun oc ->
                Out_channel.output_string oc source)
          in
          write ();
          let what = String.concat " " [ cmd; "--fix"; original ] in
          let _, stdout, stderr =
            run_cli [ cmd; "--fix"; "--dry-run"; copy ]
          in
          Helpers.check_true (what ^ " --dry-run: a diff")
            (Helpers.contains stdout "@@ " && Helpers.contains stdout "+++ ");
          Helpers.check_true (what ^ " --dry-run: counted")
            (Helpers.contains stderr "fix(es) available (dry run)");
          Alcotest.(check string) (what ^ " --dry-run: file untouched")
            source (read copy);
          let r = List.assoc cmd analyses (Some copy) source in
          let fixed, applied = Lint.apply_fixes r in
          Helpers.check_true (what ^ ": has fixes") (applied > 0);
          let _, _, stderr = run_cli [ cmd; "--fix"; copy ] in
          Helpers.check_true (what ^ ": applied")
            (Helpers.contains stderr
               (Printf.sprintf "applied %d fix(es)" applied));
          Alcotest.(check string) (what ^ ": file rewritten") fixed
            (read copy)))
    [
      ("lint", "fixtures/fixable.dram");
      ("advise", "../examples/inefficient.dram");
    ]

(* The interval generator refuses a physics function it cannot carry
   soundly, naming the function and the construct, and writes
   nothing. *)
let test_physgen_rejects () =
  let out = Filename.temp_file "physgen" ".ml" in
  Sys.remove out;
  let status, _, stderr =
    run_exe "../tools/physgen/physgen.exe"
      [
        "-interval"; out;
        "../lib/tech/.vdram_tech.objs/byte/vdram_tech__Params.cmt";
        "physgen_fixture/.physgen_fixture.objs/byte/physgen_fixture.cmt";
      ]
  in
  Helpers.check_true "exit 1" (status = Unix.WEXITED 1);
  Alcotest.(check string) "message"
    "physgen: Physgen_fixture.narrowest_sense_device: Float.min is outside \
     the generated set"
    (String.trim stderr);
  Helpers.check_true "no output written" (not (Sys.file_exists out))

(* Served = one-shot: for the same description, knobs and explicit
   pattern, the daemon's [text] is the CLI's stdout, byte for byte. *)
let test_served_equals_cli () =
  let module Json = Vdram_json.Json in
  let loop = "act nop nop rd rd pre" in
  let node = ("config", Json.Obj [ ("node", Json.Str "55nm") ]) in
  let source =
    In_channel.with_open_text "../examples/ddr3_1gb.dram" In_channel.input_all
  in
  let cases =
    [
      ( [ "power"; "--node"; "55nm"; "--pattern"; loop ],
        [ ("op", Json.Str "eval"); node; ("pattern", Json.Str loop) ] );
      ( [ "sensitivity"; "--jobs"; "1"; "--node"; "55nm"; "--pattern"; loop ],
        [ ("op", Json.Str "sensitivity"); node; ("pattern", Json.Str loop) ] );
      ( [ "corners"; "--jobs"; "1"; "--samples"; "40"; "--node"; "55nm";
          "--pattern"; loop ],
        [ ("op", Json.Str "corners"); node; ("samples", Json.Num 40.0);
          ("pattern", Json.Str loop) ] );
      ( [ "power"; "../examples/ddr3_1gb.dram" ],
        [ ("op", Json.Str "eval");
          ("config", Json.Obj [ ("source", Json.Str source) ]) ] );
    ]
  in
  Test_serve.with_server (fun _server path ->
      let fd = Test_serve.connect path in
      List.iter
        (fun (args, request) ->
          let what = String.concat " " args in
          let status, stdout, stderr = run_cli args in
          if status <> Unix.WEXITED 0 then
            Alcotest.failf "%s failed: %s" what stderr;
          Test_serve.send_line fd (Json.to_string (Json.Obj request));
          let frame = Test_serve.one (Test_serve.recv_frames fd 1) in
          Alcotest.(check string) (what ^ ": served = one-shot") stdout
            (Test_serve.jstr frame "text"))
        cases;
      Unix.close fd)

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
    Alcotest.test_case "cli: out-of-range knobs exit 2" `Quick
      test_cli_bad_knobs;
    Alcotest.test_case "cli: lint, check and advise match the in-process \
                        analyses" `Quick test_cli_analyses;
    Alcotest.test_case "cli: served text equals one-shot stdout" `Quick
      test_served_equals_cli;
    Alcotest.test_case "physgen: untranslatable physics fails the build"
      `Quick test_physgen_rejects;
  ]
