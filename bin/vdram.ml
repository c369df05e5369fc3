(* vdram command-line interface. *)

open Cmdliner

module Node = Vdram_tech.Node
module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Spec = Vdram_core.Spec

(* ----- shared arguments ------------------------------------------- *)

let node_arg =
  let parse s =
    match float_of_string_opt (Filename.remove_extension s) with
    | _ ->
      (match Vdram_units.Quantity.parse_dim Vdram_units.Quantity.Length s with
       | Ok metres -> Ok (Node.of_nm (metres *. 1e9))
       | Error _ ->
         (match float_of_string_opt s with
          | Some nm -> Ok (Node.of_nm nm)
          | None -> Error (`Msg (Printf.sprintf "bad node %S" s))))
  in
  let print ppf n = Format.fprintf ppf "%s" (Node.name n) in
  Arg.conv (parse, print)

let node =
  Arg.(
    value
    & opt node_arg Node.N65
    & info [ "node" ] ~docv:"NODE"
        ~doc:"Technology node, e.g. 65nm (nearest roadmap node is used).")

let file =
  Arg.(
    value
    & pos 0 (some file) None
    & info [] ~docv:"FILE" ~doc:"DRAM description file (.dram).")

let density_mbits =
  Arg.(
    value
    & opt (some float) None
    & info [ "density-mbits" ] ~docv:"MBITS" ~doc:"Device density in Mbit.")

let io_width =
  Arg.(
    value
    & opt (some int) None
    & info [ "io-width" ] ~docv:"N" ~doc:"DQ pins (x4/x8/x16).")

let datarate =
  Arg.(
    value
    & opt (some string) None
    & info [ "datarate" ] ~docv:"RATE" ~doc:"Per-pin data rate, e.g. 1.6Gbps.")

let pattern_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "pattern" ] ~docv:"LOOP"
        ~doc:"Command loop, e.g. 'act nop wrt nop rd nop pre nop'.")

let jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Worker domains for batched evaluations (default: \
              $(b,VDRAM_JOBS), else the recommended domain count of \
              this machine).")

let timings_arg =
  Arg.(
    value & flag
    & info [ "timings" ]
        ~doc:"Print the engine's worker count and the supervised \
              runtime's failure counters to stderr.")

(* One term shared by every analysis command: [--jobs], yielding an
   engine factory. *)
let engine_term =
  Term.(const (fun jobs () -> Vdram_engine.Engine.create ?jobs ()) $ jobs_arg)

(* ----- supervised runtime flags ------------------------------------ *)

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "keep-going"; "k" ]
        ~doc:"Isolate batch-item failures: record them (see \
              $(b,--fail-log)) and report partial results instead of \
              aborting on the first failure.  Exits 3 when any item \
              failed.")

let max_failures_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "max-failures" ] ~docv:"N"
        ~doc:"Tolerate at most $(docv) failed items (implies \
              $(b,--keep-going)); the batch stops once the budget is \
              exceeded.")

let fail_log_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "fail-log" ] ~docv:"FILE"
        ~doc:"Write the machine-readable failure report (JSON, schema \
              version 1: one record per failed item with batch, \
              index, stage, input fingerprint and message) to \
              $(docv).  Implies supervision.")

let deadline_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline" ] ~docv:"SECONDS"
        ~doc:"Per-item wall-clock budget: an item exceeding it is \
              recorded as a deadline failure.  Implies supervision.")

let supervise_flags =
  Term.(
    const (fun keep_going max_failures fail_log deadline ->
        (keep_going, max_failures, fail_log, deadline))
    $ keep_going_arg $ max_failures_arg $ fail_log_arg $ deadline_arg)

(* A supervisor is built when any supervision flag is given or a
   VDRAM_FAULTS plan is present; plain runs keep the unsupervised
   engine path bit for bit. *)
let build_supervision (keep_going, max_failures, fail_log, deadline) =
  match Vdram_engine.Faults.of_env () with
  | Error msg -> Error (Printf.sprintf "VDRAM_FAULTS: %s" msg)
  | Ok env_plan ->
    let wanted =
      keep_going || max_failures <> None || fail_log <> None
      || deadline <> None || env_plan <> None
    in
    if not wanted then Ok (None, fail_log)
    else
      let policy =
        {
          Vdram_engine.Supervise.keep_going =
            keep_going || max_failures <> None;
          max_failures;
          deadline;
        }
      in
      Ok (Some (Vdram_engine.Supervise.create ~policy ()), fail_log)

let report_timings timings engine supervisor =
  if timings then begin
    Format.eprintf "engine: %d jobs@." (Vdram_engine.Engine.jobs engine);
    match supervisor with
    | None -> ()
    | Some sup ->
      Format.eprintf "supervised: %a@." Vdram_engine.Supervise.pp_counters
        (Vdram_engine.Supervise.counters sup)
  end

(* End-of-command bookkeeping: persist the failure report, then
   report counters.  Returns the failure count so callers can pick the
   exit code. *)
let finalize ~command timings engine supervisor fail_log =
  (match (supervisor, fail_log) with
   | Some sup, Some path ->
     Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc
           (Vdram_engine.Supervise.report_to_json ~command sup))
   | _ -> ());
  report_timings timings engine supervisor;
  match supervisor with
  | None -> 0
  | Some sup -> (Vdram_engine.Supervise.counters sup).Vdram_engine.Supervise.failures

let fail fmt = Printf.ksprintf (fun m -> `Error (false, m)) fmt

(* Exit-code contract of the supervised analysis commands: 0 clean,
   3 partial results (failures were recorded under --keep-going);
   aborts and usage errors go through cmdliner's own codes. *)
let exit_partial = 3

(* SIGINT/SIGTERM on a batched command still leaves useful state
   behind: the failure report is written and the partial supervision
   counters are printed, through the Signals module [vdram serve]
   shares. *)
let install_interrupt ~command supervisor fail_log =
  Vdram_serve.Signals.install (fun signum ->
      Format.eprintf "@.%s: interrupted; writing partial state@." command;
      (match (supervisor, fail_log) with
       | Some sup, Some path ->
         (try
            Out_channel.with_open_text path (fun oc ->
                Out_channel.output_string oc
                  (Vdram_engine.Supervise.report_to_json ~command sup))
          with Sys_error _ -> ())
       | _ -> ());
      (match supervisor with
       | None -> ()
       | Some sup ->
         Format.eprintf "supervised: %a@." Vdram_engine.Supervise.pp_counters
           (Vdram_engine.Supervise.counters sup));
      exit (128 + Vdram_serve.Signals.os_number signum))

let run_supervised ~command ~timings ~engine ~supervisor ~fail_log body =
  let module S = Vdram_engine.Supervise in
  install_interrupt ~command supervisor fail_log;
  match body () with
  | () ->
    let failures = finalize ~command timings engine supervisor fail_log in
    if failures = 0 then `Ok ()
    else begin
      Format.eprintf "%s: %d item(s) failed; results are partial%s@." command
        failures
        (match fail_log with
         | Some path -> Printf.sprintf " (failure report: %s)" path
         | None -> "");
      exit exit_partial
    end
  | exception S.Aborted { failures; tolerated } ->
    ignore (finalize ~command timings engine supervisor fail_log : int);
    fail "%s: aborted after %d failure(s) (max tolerated %d)" command failures
      tolerated
  | exception e when Option.is_some supervisor ->
    (* Even a run that dies outside the batch leaves its failure
       report behind. *)
    ignore (finalize ~command timings engine supervisor fail_log : int);
    fail "%s: %s" command (Printexc.to_string e)

(* Bad values on the command line exit 2, the code lint uses for
   errors, before anything is printed to stdout. *)
let usage_error fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("vdram: " ^ m);
      exit 2)
    fmt

let load_config ?file ?density_mbits ?io_width ?datarate ~node () =
  match file with
  | Some path ->
    (match Vdram_dsl.Elaborate.load_file path with
     | Ok { Vdram_dsl.Elaborate.config; pattern } -> Ok (config, pattern)
     | Error e ->
       Error (Format.asprintf "%s: %a" path Vdram_dsl.Parser.pp_error e))
  | None ->
    let datarate =
      match Vdram_serve.Protocol.parse_datarate datarate with
      | Ok d -> d
      | Error e -> usage_error "%s" e
    in
    let density_bits =
      Option.map (fun m -> m *. (2.0 ** 20.0)) density_mbits
    in
    Ok
      ( Config.commodity ?density_bits ?io_width ?datarate ~node (),
        None )

let resolve_pattern config stored arg =
  match arg with
  | Some loop ->
    (match Pattern.parse ~name:"cli pattern" loop with
     | Ok p -> Ok p
     | Error e -> Error e)
  | None ->
    Ok
      (match stored with
       | Some p -> p
       | None -> Pattern.idd7_mixed config.Config.spec)

(* ----- power ------------------------------------------------------- *)

let power_cmd =
  let run file node density_mbits io_width datarate pattern =
    match load_config ?file ?density_mbits ?io_width ?datarate ~node () with
    | Error e -> fail "%s" e
    | Ok (config, stored) ->
      (match resolve_pattern config stored pattern with
       | Error e -> fail "%s" e
       | Ok p ->
         (* Shared with [vdram serve]: same renderer, so a daemon
            response is byte-equal to this stdout. *)
         Vdram_serve.Render.power ~eval:Model.pattern_power
           Format.std_formatter config p;
         `Ok ())
  in
  let doc = "Compute power and currents of a device." in
  Cmd.v (Cmd.info "power" ~doc)
    Term.(
      ret
        (const run $ file $ node $ density_mbits $ io_width $ datarate
       $ pattern_arg))

(* ----- verify ------------------------------------------------------ *)

let verify_cmd =
  let family =
    Arg.(
      value
      & opt (enum [ ("ddr2", `Ddr2); ("ddr3", `Ddr3) ]) `Ddr3
      & info [ "family" ] ~doc:"Datasheet family: ddr2 (Fig 8) or ddr3 (Fig 9).")
  in
  let run family =
    let rows =
      match family with
      | `Ddr2 -> Vdram_datasheets.Compare.fig8 ()
      | `Ddr3 -> Vdram_datasheets.Compare.fig9 ()
    in
    List.iter
      (fun r -> Format.printf "%a@." Vdram_datasheets.Compare.pp_row r)
      rows;
    `Ok ()
  in
  let doc = "Compare model currents against vendor datasheets (Figs 8/9)." in
  Cmd.v (Cmd.info "verify" ~doc) Term.(ret (const run $ family))

(* ----- sensitivity ------------------------------------------------- *)

let sensitivity_cmd =
  let top =
    Arg.(
      value & opt int 15
      & info [ "top" ] ~docv:"N" ~doc:"Entries to print.")
  in
  let run file node top pattern mk_engine timings sup_flags =
    match load_config ?file ~node () with
    | Error e -> fail "%s" e
    | Ok (config, stored) ->
      (match resolve_pattern config stored pattern with
       | Error e -> fail "%s" e
       | Ok p ->
         (match build_supervision sup_flags with
          | Error e -> fail "%s" e
          | Ok (supervisor, fail_log) ->
            let engine = mk_engine () in
            run_supervised ~command:"sensitivity" ~timings ~engine ~supervisor
              ~fail_log (fun () ->
                let s =
                  Vdram_analysis.Sensitivity.run ~engine ?supervisor
                    ~pattern:p config
                in
                Vdram_serve.Render.sensitivity ~top Format.std_formatter s)))
  in
  let doc = "Rank parameters by power impact (Fig 10 / Table III)." in
  Cmd.v (Cmd.info "sensitivity" ~doc)
    Term.(
      ret (const run $ file $ node $ top $ pattern_arg $ engine_term
         $ timings_arg $ supervise_flags))

(* ----- trends ------------------------------------------------------ *)

let trends_cmd =
  let run mk_engine timings sup_flags =
    match build_supervision sup_flags with
    | Error e -> fail "%s" e
    | Ok (supervisor, fail_log) ->
      let engine = mk_engine () in
      run_supervised ~command:"trends" ~timings ~engine ~supervisor ~fail_log
        (fun () ->
          List.iter
            (fun p -> Format.printf "%a@." Vdram_analysis.Trends.pp_point p)
            (Vdram_analysis.Trends.all ~engine ?supervisor ()))
  in
  let doc = "DRAM roadmap trends (Figs 11-13)." in
  Cmd.v (Cmd.info "trends" ~doc)
    Term.(ret (const run $ engine_term $ timings_arg $ supervise_flags))

(* ----- schemes ----------------------------------------------------- *)

let schemes_cmd =
  let run file node mk_engine timings sup_flags =
    match load_config ?file ~node () with
    | Error e -> fail "%s" e
    | Ok (config, _) ->
      (match build_supervision sup_flags with
       | Error e -> fail "%s" e
       | Ok (supervisor, fail_log) ->
         let engine = mk_engine () in
         run_supervised ~command:"schemes" ~timings ~engine ~supervisor
           ~fail_log (fun () ->
             let results =
               Vdram_schemes.Evaluate.run_all ~engine ?supervisor config
             in
             Format.printf "baseline: %s@.@.%a@." config.Config.name
               Vdram_schemes.Evaluate.pp_table results))
  in
  let doc = "Evaluate the Section V power-reduction schemes." in
  Cmd.v (Cmd.info "schemes" ~doc)
    Term.(
      ret (const run $ file $ node $ engine_term $ timings_arg
         $ supervise_flags))

(* ----- simulate ---------------------------------------------------- *)

let simulate_cmd =
  let workload =
    Arg.(
      value
      & opt
          (enum
             [ ("uniform", `Uniform); ("stream", `Stream);
               ("hotspot", `Hotspot) ])
          `Uniform
      & info [ "workload" ] ~doc:"Synthetic workload shape.")
  in
  let requests =
    Arg.(
      value & opt int 10000
      & info [ "requests" ] ~docv:"N" ~doc:"Requests to simulate.")
  in
  let gap =
    Arg.(
      value & opt int 8
      & info [ "gap" ] ~docv:"CYCLES" ~doc:"Cycles between arrivals.")
  in
  let power_down =
    Arg.(
      value & opt (some int) None
      & info [ "power-down" ] ~docv:"CYCLES"
          ~doc:"Enter precharge power-down beyond this idle threshold.")
  in
  let closed_page =
    Arg.(value & flag & info [ "closed-page" ] ~doc:"Close rows eagerly.")
  in
  let run file node workload requests gap power_down closed_page =
    match load_config ?file ~node () with
    | Error e -> fail "%s" e
    | Ok (config, _) ->
      let spec = config.Config.spec in
      let banks = spec.Spec.banks in
      let rows = 1024 and columns = 128 in
      let trace =
        match workload with
        | `Uniform ->
          Vdram_sim.Trace.uniform ~rng:(Vdram_sim.Trace.rng 42)
            ~requests ~arrival_gap:gap ~banks ~rows ~columns
            ~write_fraction:0.3
        | `Stream ->
          Vdram_sim.Trace.streaming ~requests ~arrival_gap:gap ~banks ~rows
            ~columns ~write_fraction:0.3
        | `Hotspot ->
          Vdram_sim.Trace.hotspot ~rng:(Vdram_sim.Trace.rng 42)
            ~requests ~arrival_gap:gap ~banks ~rows ~columns
            ~write_fraction:0.3 ~hot_rows:16 ~hot_fraction:0.8
      in
      let page_policy =
        if closed_page then Vdram_sim.Controller.Closed_page
        else Vdram_sim.Controller.Open_page
      in
      let power_down =
        match power_down with
        | Some n -> Vdram_sim.Controller.Precharge_power_down n
        | None -> Vdram_sim.Controller.No_power_down
      in
      let run = Vdram_sim.Sim.simulate ~page_policy ~power_down config trace in
      Format.printf "%a@." Vdram_sim.Sim.pp_run run;
      `Ok ()
  in
  let doc = "Run a workload through the controller + power model." in
  Cmd.v (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const run $ file $ node $ workload $ requests $ gap $ power_down
       $ closed_page))

(* ----- validate ------------------------------------------------------ *)

let validate_cmd =
  let run file node =
    match load_config ?file ~node () with
    | Error e -> fail "%s" e
    | Ok (config, _) ->
      (match Vdram_core.Validate.check config with
       | [] ->
         Format.printf "%s: consistent@." config.Config.name;
         `Ok ()
       | findings ->
         List.iter
           (fun f -> Format.printf "%a@." Vdram_core.Validate.pp_finding f)
           findings;
         if Vdram_core.Validate.is_clean config then `Ok ()
         else fail "%s has errors" config.Config.name)
  in
  let doc = "Check a description for semantic consistency." in
  Cmd.v (Cmd.info "validate" ~doc) Term.(ret (const run $ file $ node))

(* ----- lint --------------------------------------------------------- *)

let lint_cmd =
  let module Lint = Vdram_lint.Lint in
  let module Code = Vdram_diagnostics.Code in
  let module Suggest = Vdram_diagnostics.Suggest in
  let files =
    Arg.(
      value
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"DRAM description files (.dram); $(b,-) reads standard \
                input.")
  in
  let explain =
    Arg.(
      value
      & opt (some string) None
      & info [ "explain" ] ~docv:"CODE"
          ~doc:"Print the documentation-inventory entry for one \
                diagnostic code (severity, title, band, rationale, \
                example), e.g. $(b,--explain V1002), and exit.  No \
                files are linted.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text) (compiler-style, with source \
                excerpts), $(b,json) or $(b,sarif) (SARIF 2.1.0).")
  in
  let deny_warnings =
    Arg.(
      value & flag
      & info [ "deny-warnings" ]
          ~doc:"Exit non-zero when warnings remain (after $(b,--allow)).")
  in
  let allow =
    Arg.(
      value
      & opt_all string []
      & info [ "allow" ] ~docv:"CODE"
          ~doc:"Suppress a warning code, e.g. $(b,--allow V0304). \
                Repeatable.  Errors cannot be suppressed.")
  in
  let fix =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:"Apply the structured fix-its to the files in place \
                (non-overlapping edits only) and lint the result.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"With $(b,--fix): print a unified diff of the edits to \
                standard output instead of rewriting the files.")
  in
  let fix_only =
    Arg.(
      value
      & opt (some string) None
      & info [ "fix-only" ] ~docv:"CODE"
          ~doc:"Like $(b,--fix), but apply only the fix-its attached \
                to one diagnostic code, e.g. $(b,--fix-only V0101), \
                leaving every other edit alone.  Composes with \
                $(b,--dry-run).")
  in
  let run files explain format deny allow fix dry_run only =
    let fixing = fix || only <> None in
    match explain with
    | Some code ->
      (match Code.find code with
       | Some i ->
         Format.printf "%a@." Code.explain i;
         `Ok ()
       | None ->
         let hint =
           match
             Suggest.nearest
               ~candidates:(List.map (fun i -> i.Code.code) Code.all)
               code
           with
           | Some near -> Printf.sprintf " (did you mean %s?)" near
           | None -> ""
         in
         fail "unknown lint code %S%s (doc/DSL.md lists the inventory)"
           code hint)
    | None ->
    match
      List.find_opt (fun c -> not (Code.is_known c))
        (allow @ Option.to_list only)
    with
    | Some c ->
      fail "unknown lint code %S (doc/DSL.md lists the inventory)" c
    | None ->
      if files = [] then
        fail "no FILE given (pass description files, or --explain CODE)"
      else if dry_run && not fixing then
        fail "--dry-run only makes sense with --fix or --fix-only"
      else if fixing && (not dry_run) && List.mem "-" files then
        fail "--fix cannot rewrite standard input (try --dry-run)"
      else begin
        let lint_one f =
          if f = "-" then Lint.run (In_channel.input_all In_channel.stdin)
          else Lint.run_file f
        in
        let reports =
          List.map (fun f -> (f, Lint.suppress ~codes:allow (lint_one f)))
            files
        in
        let reports =
          if not fixing then List.map snd reports
          else if dry_run then
            List.map
              (fun (f, r) ->
                (match Lint.preview_fixes ?only r with
                 | None -> ()
                 | Some (diff, applied) ->
                   Printf.eprintf "%s: %d fix(es) available (dry run)\n%!"
                     f applied;
                   print_string diff);
                r)
              reports
          else
            List.map
              (fun (f, r) ->
                let fixed, applied = Lint.apply_fixes ?only r in
                if applied = 0 then r
                else begin
                  Out_channel.with_open_text f (fun oc ->
                      Out_channel.output_string oc fixed);
                  Printf.eprintf "%s: applied %d fix(es)\n%!" f applied;
                  Lint.suppress ~codes:allow (Lint.run ~file:f fixed)
                end)
              reports
        in
        (match format with
         | `Sarif -> print_string (Lint.to_sarif reports)
         | `Json ->
           let total count =
             List.fold_left (fun a r -> a + count r) 0 reports
           in
           Printf.printf
             "{\"version\":1,\"errors\":%d,\"warnings\":%d,\"files\":[%s]}\n"
             (total Lint.errors) (total Lint.warnings)
             (String.concat "," (List.map Lint.to_json reports))
         | `Text ->
           List.iter
             (fun (r : Lint.report) ->
               let name = Option.value ~default:"<stdin>" r.Lint.file in
               if r.Lint.diagnostics = [] then
                 Format.printf "%s: clean@." name
               else begin
                 Format.printf "%a" Lint.pp_text r;
                 Format.printf "%s: %d error(s), %d warning(s)@." name
                   (Lint.errors r) (Lint.warnings r)
               end)
             reports);
        (* Exit-code contract: 0 clean, 1 warnings denied, 2 errors. *)
        match Lint.exit_code ~deny_warnings:deny reports with
        | 0 -> `Ok ()
        | n -> exit n
      end
  in
  let doc =
    "Statically analyse descriptions: syntax, dimensional analysis, \
     physical consistency, timing, finiteness, floorplan coordinates \
     and bank-aware pattern legality.  $(b,--explain CODE) prints the \
     inventory entry for one diagnostic code instead.  Exits 0 when \
     clean, 1 when warnings remain under $(b,--deny-warnings), 2 on \
     errors."
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      ret
        (const run $ files $ explain $ format $ deny_warnings $ allow $ fix
       $ dry_run $ fix_only))

(* ----- check -------------------------------------------------------- *)

let check_cmd =
  let module Lint = Vdram_lint.Lint in
  let module Check = Vdram_lint.Check in
  let module Code = Vdram_diagnostics.Code in
  let module Lenses = Vdram_analysis.Lenses in
  let module Abox = Vdram_absint.Abox in
  let module Bounds = Vdram_absint.Bounds in
  let module Monotone = Vdram_absint.Monotone in
  let module Certificate = Vdram_absint.Certificate in
  let module I = Vdram_units.Interval in
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"DRAM description files (.dram); $(b,-) reads standard \
                input.")
  in
  let certify =
    Arg.(
      value & flag
      & info [ "certify" ]
          ~doc:"Emit the machine-readable certificate JSON (bounds, \
                monotonicity directions, sweep legality, sampling \
                cross-check) to standard output, one object per file; \
                findings move to standard error unless $(b,--out) \
                redirects the certificate.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"With $(b,--certify): write the certificate JSON here \
                instead of standard output.")
  in
  let lens_specs =
    Arg.(
      value
      & opt_all string []
      & info [ "lens" ] ~docv:"NAME[=LO:HI]"
          ~doc:"Certify this lens axis over the scale-factor range \
                [LO, HI] (bare NAME uses the lens group's default \
                range).  Repeatable; replaces the default voltage + \
                interface axis set.")
  in
  let all_lenses =
    Arg.(
      value & flag
      & info [ "all-lenses" ]
          ~doc:"Certify every lens of the Figure 10 inventory over its \
                default range instead of the voltage + interface set.")
  in
  let splits =
    Arg.(
      value & opt int 4
      & info [ "splits" ] ~docv:"N"
          ~doc:"Branch-and-bound bisection depth behind the bounds (up \
                to 2^N leaf evaluations).")
  in
  let cells =
    Arg.(
      value & opt int 32
      & info [ "cells" ] ~docv:"N"
          ~doc:"Deepest partition tried per monotonicity certificate.")
  in
  let samples =
    Arg.(
      value & opt int 0
      & info [ "samples" ] ~docv:"N"
          ~doc:"Draw N concrete random configurations from the box and \
                assert them inside the certified bounds; the result is \
                recorded in the certificate.")
  in
  let seed =
    Arg.(
      value & opt int 0x5eed
      & info [ "seed" ] ~docv:"N" ~doc:"Seed for the sampling stream.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format for the findings: $(b,text), $(b,json) or \
                $(b,sarif) (SARIF 2.1.0).")
  in
  let deny_warnings =
    Arg.(
      value & flag
      & info [ "deny-warnings" ]
          ~doc:"Exit non-zero when warnings remain (after $(b,--allow)).")
  in
  let allow =
    Arg.(
      value
      & opt_all string []
      & info [ "allow" ] ~docv:"CODE"
          ~doc:"Suppress a warning code, e.g. $(b,--allow V0902). \
                Repeatable.  Errors cannot be suppressed.")
  in
  let parse_axis spec =
    let name, range =
      match String.index_opt spec '=' with
      | None -> (spec, None)
      | Some i ->
        ( String.sub spec 0 i,
          Some (String.sub spec (i + 1) (String.length spec - i - 1)) )
    in
    match Lenses.find (String.trim name) with
    | None -> Error (Printf.sprintf "unknown lens %S" (String.trim name))
    | Some lens ->
      (match range with
       | None -> Ok (Abox.default_axis lens)
       | Some r ->
         (match String.split_on_char ':' r with
          | [ lo; hi ] ->
            (match (float_of_string_opt lo, float_of_string_opt hi) with
             | Some lo, Some hi when lo > 0.0 && lo <= hi ->
               Ok (Abox.axis lens ~lo ~hi)
             | _ ->
               Error
                 (Printf.sprintf "bad range %S (want 0 < LO <= HI)" r))
          | _ -> Error (Printf.sprintf "bad range %S (want LO:HI)" r)))
  in
  let pp_interval ppf (i : I.t) =
    Format.fprintf ppf "[%.4g, %.4g]" i.I.lo i.I.hi
  in
  let summary ppf (c : Certificate.t) =
    let b = c.Certificate.bounds in
    Format.fprintf ppf "  certified over %d axes, %d leaf boxes@."
      (Abox.dim c.Certificate.box) b.Bounds.pieces;
    Format.fprintf ppf "  power       %a W@." pp_interval b.Bounds.power;
    Format.fprintf ppf "  current     %a A@." pp_interval b.Bounds.current;
    (match b.Bounds.energy_per_bit with
     | Some e ->
       Format.fprintf ppf "  energy/bit  [%.4g, %.4g] pJ/bit@."
         (e.I.lo *. 1e12) (e.I.hi *. 1e12)
     | None -> ());
    let certified =
      List.filter
        (fun (m : Monotone.certificate) -> m.Monotone.direction <> None)
        c.Certificate.monotonicity
    in
    Format.fprintf ppf "  monotone    %d/%d axes certified"
      (List.length certified)
      (List.length c.Certificate.monotonicity);
    (match certified with
     | [] -> Format.fprintf ppf "@."
     | _ ->
       Format.fprintf ppf ": %s@."
         (String.concat ", "
            (List.map
               (fun (m : Monotone.certificate) ->
                 Printf.sprintf "%s %s" m.Monotone.lens
                   (match m.Monotone.direction with
                    | Some d -> Monotone.direction_name d
                    | None -> "?"))
               certified)));
    (match c.Certificate.sweep with
     | None -> ()
     | Some s ->
       let legal =
         List.length
           (List.filter
              (fun (e : Certificate.sweep_entry) -> e.Certificate.legal)
              s.Certificate.entries)
       in
       Format.fprintf ppf "  sweep       legal at %d/%d roadmap generations@."
         legal
         (List.length s.Certificate.entries));
    match c.Certificate.samples with
    | None -> ()
    | Some s ->
      Format.fprintf ppf "  samples     %d drawn, %s@." s.Certificate.count
        (if s.Certificate.contained then "all inside the bounds"
         else "OUTSIDE THE BOUNDS (unsound!)")
  in
  let run files certify out lens_specs all_lenses splits cells samples seed
      format deny allow =
    match List.find_opt (fun c -> not (Code.is_known c)) allow with
    | Some c ->
      fail "unknown lint code %S (doc/CHECK.md lists the inventory)" c
    | None ->
      let axes =
        if lens_specs <> [] then
          let rec collect acc = function
            | [] -> Ok (List.rev acc)
            | s :: rest ->
              (match parse_axis s with
               | Ok a -> collect (a :: acc) rest
               | Error e -> Error e)
          in
          collect [] lens_specs
        else if all_lenses then
          Ok (List.map Abox.default_axis Lenses.all)
        else Ok (Check.default_axes ())
      in
      (match axes with
       | Error e -> fail "%s" e
       | Ok axes ->
         let check_one f =
           let r =
             if f = "-" then
               Check.run ~axes ~splits ~max_cells:cells ~samples ~seed
                 (In_channel.input_all In_channel.stdin)
             else
               Check.run_file ~axes ~splits ~max_cells:cells ~samples ~seed
                 f
           in
           { r with
             Check.report = Lint.suppress ~codes:allow r.Check.report }
         in
         let results = List.map (fun f -> (f, check_one f)) files in
         let reports = List.map (fun (_, r) -> r.Check.report) results in
         (* With --certify and no --out the certificate owns stdout, so
            findings go to stderr to keep the payload machine-parseable. *)
         let ppf =
           if certify && out = None then Format.err_formatter
           else Format.std_formatter
         in
         (match format with
          | `Sarif -> Format.fprintf ppf "%s" (Lint.to_sarif reports)
          | `Json ->
            let total count =
              List.fold_left (fun a r -> a + count r) 0 reports
            in
            Format.fprintf ppf
              "{\"version\":1,\"errors\":%d,\"warnings\":%d,\"files\":[%s]}\n"
              (total Lint.errors) (total Lint.warnings)
              (String.concat "," (List.map Lint.to_json reports))
          | `Text ->
            List.iter
              (fun (f, r) ->
                (match r.Check.certificate with
                 | Some c ->
                   Format.fprintf ppf "%s:@." f;
                   summary ppf c
                 | None -> ());
                Format.fprintf ppf "%a" Lint.pp_text r.Check.report;
                let rep = r.Check.report in
                Format.fprintf ppf "%s: %d error(s), %d warning(s)@." f
                  (Lint.errors rep) (Lint.warnings rep))
              results);
         Format.pp_print_flush ppf ();
         if certify then begin
           let jsons =
             List.filter_map
               (fun (_, r) ->
                 Option.map Certificate.to_json r.Check.certificate)
               results
           in
           let payload = String.concat "\n" jsons ^ "\n" in
           match out with
           | Some path ->
             Out_channel.with_open_text path (fun oc ->
                 Out_channel.output_string oc payload)
           | None -> print_string payload
         end;
         (match Lint.exit_code ~deny_warnings:deny reports with
          | 0 ->
            if List.exists (fun (_, r) -> r.Check.certificate = None) results
            then exit 2
            else `Ok ()
          | n -> exit n))
  in
  let doc =
    "Abstract interpretation over a configuration box: guaranteed \
     power/current/energy-per-bit bounds across the declared lens \
     scale ranges, per-lens monotonicity certificates, and \
     whole-sweep pattern legality across the fourteen roadmap \
     generations (V09xx).  $(b,--certify) emits the machine-readable \
     certificate contract consumed by search pruners."
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      ret
        (const run $ files $ certify $ out $ lens_specs $ all_lenses
       $ splits $ cells $ samples $ seed $ format $ deny_warnings $ allow))

(* ----- advise ------------------------------------------------------- *)

let advise_cmd =
  let module Lint = Vdram_lint.Lint in
  let module Advise = Vdram_lint.Advise in
  let module Code = Vdram_diagnostics.Code in
  let files =
    Arg.(
      non_empty
      & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:"DRAM description files (.dram); $(b,-) reads standard \
                input.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("sarif", `Sarif) ])
          `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:"Output format: $(b,text) (dataflow summary plus \
                compiler-style findings), $(b,json) (findings with an \
                $(b,advise) member carrying the summary) or $(b,sarif) \
                (SARIF 2.1.0).")
  in
  let waste_threshold =
    Arg.(
      value
      & opt float 0.10
      & info [ "waste-threshold" ] ~docv:"FRACTION"
          ~doc:"Actual-vs-floor energy fraction above which $(b,V1004) \
                fires (default 0.10).")
  in
  let deny_warnings =
    Arg.(
      value & flag
      & info [ "deny-warnings" ]
          ~doc:"Exit non-zero when warnings remain (after $(b,--allow)).")
  in
  let allow =
    Arg.(
      value
      & opt_all string []
      & info [ "allow" ] ~docv:"CODE"
          ~doc:"Suppress a warning code, e.g. $(b,--allow V1003). \
                Repeatable.  Errors cannot be suppressed.")
  in
  let fix =
    Arg.(
      value & flag
      & info [ "fix" ]
          ~doc:"Apply the verified rewrite fix-its to the files in \
                place (non-overlapping edits only) and re-advise the \
                result.")
  in
  let dry_run =
    Arg.(
      value & flag
      & info [ "dry-run" ]
          ~doc:"With $(b,--fix): print a unified diff of the edits to \
                standard output instead of rewriting the files.")
  in
  let fix_only =
    Arg.(
      value
      & opt (some string) None
      & info [ "fix-only" ] ~docv:"CODE"
          ~doc:"Like $(b,--fix), but apply only the fix-its attached \
                to one diagnostic code, e.g. $(b,--fix-only V1001).  \
                Composes with $(b,--dry-run).")
  in
  let run files format waste_threshold deny allow fix dry_run only =
    let fixing = fix || only <> None in
    match
      List.find_opt (fun c -> not (Code.is_known c))
        (allow @ Option.to_list only)
    with
    | Some c ->
      fail "unknown lint code %S (doc/ADVISE.md lists the inventory)" c
    | None ->
      if dry_run && not fixing then
        fail "--dry-run only makes sense with --fix or --fix-only"
      else if fixing && (not dry_run) && List.mem "-" files then
        fail "--fix cannot rewrite standard input (try --dry-run)"
      else begin
        let advise_one f =
          let a =
            if f = "-" then
              Advise.run ~waste_threshold
                (In_channel.input_all In_channel.stdin)
            else Advise.run_file ~waste_threshold f
          in
          { a with
            Advise.report = Lint.suppress ~codes:allow a.Advise.report }
        in
        let results = List.map (fun f -> (f, advise_one f)) files in
        let results =
          if not fixing then results
          else if dry_run then
            List.map
              (fun (f, a) ->
                (match Lint.preview_fixes ?only a.Advise.report with
                 | None -> ()
                 | Some (diff, applied) ->
                   Printf.eprintf "%s: %d fix(es) available (dry run)\n%!"
                     f applied;
                   print_string diff);
                (f, a))
              results
          else
            List.map
              (fun (f, a) ->
                let fixed, applied = Lint.apply_fixes ?only a.Advise.report in
                if applied = 0 then (f, a)
                else begin
                  Out_channel.with_open_text f (fun oc ->
                      Out_channel.output_string oc fixed);
                  Printf.eprintf "%s: applied %d fix(es)\n%!" f applied;
                  let a = Advise.run ~waste_threshold ~file:f fixed in
                  ( f,
                    { a with
                      Advise.report =
                        Lint.suppress ~codes:allow a.Advise.report } )
                end)
              results
        in
        let reports = List.map (fun (_, a) -> a.Advise.report) results in
        (match format with
         | `Sarif -> print_string (Lint.to_sarif reports)
         | `Json ->
           let total count =
             List.fold_left (fun a r -> a + count r) 0 reports
           in
           Printf.printf
             "{\"version\":1,\"errors\":%d,\"warnings\":%d,\"files\":[%s]}\n"
             (total Lint.errors) (total Lint.warnings)
             (String.concat ","
                (List.map (fun (_, a) -> Advise.to_json a) results))
         | `Text ->
           List.iter
             (fun (f, (a : Advise.t)) ->
               let name =
                 Option.value ~default:"<stdin>" a.Advise.report.Lint.file
               in
               ignore f;
               (match a.Advise.summary with
                | Some s ->
                  Format.printf "%s:@.%a@." name Advise.pp_summary s
                | None -> ());
               if a.Advise.report.Lint.diagnostics = [] then
                 Format.printf "%s: no advice@." name
               else begin
                 Format.printf "%a" Lint.pp_text a.Advise.report;
                 Format.printf "%s: %d error(s), %d warning(s)@." name
                   (Lint.errors a.Advise.report)
                   (Lint.warnings a.Advise.report)
               end)
             results);
        (* Exit-code contract: 0 clean, 1 warnings denied, 2 errors. *)
        match Lint.exit_code ~deny_warnings:deny reports with
        | 0 -> `Ok ()
        | n -> exit n
      end
  in
  let doc =
    "Static dataflow analysis of the pattern loop, without a \
     simulation run: per-command slack against the binding timing \
     constraint, steady-state bus and bank utilization, row-buffer \
     locality, a power-down-eligible idle-window inventory, and the \
     loop's distance from a certified static energy floor (V10xx).  \
     Every proposed rewrite is replayed across all fourteen roadmap \
     generations and re-priced before it is offered.  Exits 0 when \
     clean, 1 when warnings remain under $(b,--deny-warnings), 2 on \
     errors."
  in
  Cmd.v (Cmd.info "advise" ~doc)
    Term.(
      ret
        (const run $ files $ format $ waste_threshold $ deny_warnings
       $ allow $ fix $ dry_run $ fix_only))

(* ----- corners ------------------------------------------------------ *)

let corners_cmd =
  let samples =
    Arg.(value & opt int 200 & info [ "samples" ] ~doc:"Monte-Carlo samples.")
  in
  let spread =
    Arg.(
      value & opt float 0.10
      & info [ "spread" ] ~doc:"Half-width of the parameter band (0.10 = +-10%).")
  in
  let run file node samples spread pattern mk_engine timings sup_flags =
    match load_config ?file ~node () with
    | Error e -> fail "%s" e
    | Ok (config, stored) ->
      (match resolve_pattern config stored pattern with
       | Error e -> fail "%s" e
       | Ok p ->
         (match build_supervision sup_flags with
          | Error e -> fail "%s" e
          | Ok (supervisor, fail_log) ->
            let engine = mk_engine () in
            run_supervised ~command:"corners" ~timings ~engine ~supervisor
              ~fail_log (fun () ->
                let d =
                  Vdram_analysis.Corners.run ~engine ?supervisor ~samples
                    ~spread ~pattern:p config
                in
                Vdram_serve.Render.corners ~config_name:config.Config.name
                  ~pattern_name:p.Pattern.name Format.std_formatter d)))
  in
  let doc = "Monte-Carlo parameter spread (the vendor-spread story)." in
  Cmd.v (Cmd.info "corners" ~doc)
    Term.(
      ret
        (const run $ file $ node $ samples $ spread $ pattern_arg
       $ engine_term $ timings_arg $ supervise_flags))

(* ----- states ------------------------------------------------------- *)

let states_cmd =
  let run file node =
    match load_config ?file ~node () with
    | Error e -> fail "%s" e
    | Ok (config, _) ->
      Format.printf "%s@." config.Config.name;
      List.iter
        (fun st ->
          Format.printf "  %-18s %10s@." (Model.state_name st)
            (Vdram_units.Si.format_eng ~unit_symbol:"W"
               (Model.state_power config st)))
        [ Model.Active_standby; Model.Precharge_standby; Model.Power_down;
          Model.Self_refresh ];
      Format.printf "  %-18s %10s@." "Idd5B (burst ref)"
        (Vdram_units.Si.format_eng ~unit_symbol:"A" (Model.idd5b config));
      Format.printf "@.peak (windowed) currents:@.";
      List.iter
        (fun p -> Format.printf "  %a@." Vdram_core.Peak.pp p)
        (Vdram_core.Peak.all config);
      Format.printf "  worst case (tFAW + burst): %6.1f mA@."
        (Vdram_core.Peak.worst_case config *. 1e3);
      `Ok ()
  in
  let doc = "Standby-state powers and the refresh current." in
  Cmd.v (Cmd.info "states" ~doc) Term.(ret (const run $ file $ node))

(* ----- ablate ------------------------------------------------------- *)

let ablate_cmd =
  let which =
    Arg.(
      value
      & opt
          (enum
             [ ("activation", `Activation); ("bitline", `Bitline);
               ("style", `Style); ("prefetch", `Prefetch);
               ("wordline", `Wordline) ])
          `Activation
      & info [ "sweep" ] ~doc:"Which design choice to sweep.")
  in
  let run node which mk_engine timings sup_flags =
    match build_supervision sup_flags with
    | Error e -> fail "%s" e
    | Ok (supervisor, fail_log) ->
      let engine = mk_engine () in
      run_supervised ~command:"ablate" ~timings ~engine ~supervisor ~fail_log
        (fun () ->
          let pts =
            match which with
            | `Activation ->
              Vdram_analysis.Ablation.page_size ~engine ?supervisor ~node
                ~pages:[ 1024; 2048; 4096; 8192; 16384 ] ()
            | `Bitline ->
              Vdram_analysis.Ablation.bitline_length ~engine ?supervisor
                ~node ~bits:[ 256; 512; 1024 ] ()
            | `Style ->
              Vdram_analysis.Ablation.bitline_style ~engine ?supervisor ~node
                ()
            | `Prefetch ->
              Vdram_analysis.Ablation.prefetch ~engine ?supervisor ~node
                ~prefetches:[ 2; 4; 8; 16; 32 ] ()
            | `Wordline ->
              Vdram_analysis.Ablation.subarray_height ~engine ?supervisor
                ~node ~bits:[ 256; 512; 1024 ] ()
          in
          Format.printf "%a@?" Vdram_analysis.Ablation.pp pts)
  in
  let doc = "Sweep one architectural design choice." in
  Cmd.v (Cmd.info "ablate" ~doc)
    Term.(
      ret (const run $ node $ which $ engine_term $ timings_arg
         $ supervise_flags))

(* ----- export ------------------------------------------------------- *)

let export_cmd =
  let outdir =
    Arg.(
      value & opt string "."
      & info [ "outdir" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run node outdir =
    let w name contents =
      let path = Filename.concat outdir name in
      Vdram_analysis.Csv.write_file path contents;
      Format.printf "wrote %s@." path
    in
    w "trends.csv" (Vdram_analysis.Csv.trends (Vdram_analysis.Trends.all ()));
    w "fig8_ddr2.csv"
      (Vdram_analysis.Csv.verification (Vdram_datasheets.Compare.fig8 ()));
    w "fig9_ddr3.csv"
      (Vdram_analysis.Csv.verification (Vdram_datasheets.Compare.fig9 ()));
    w "sensitivity.csv"
      (Vdram_analysis.Csv.sensitivity
         (Vdram_analysis.Sensitivity.run
            (Config.commodity ~node ())));
    `Ok ()
  in
  let doc = "Export figure data as CSV for external plotting." in
  Cmd.v (Cmd.info "export" ~doc) Term.(ret (const run $ node $ outdir))

(* ----- channel ------------------------------------------------------ *)

let channel_cmd =
  let utilization =
    Arg.(
      value & opt float 0.5
      & info [ "utilization" ] ~docv:"FRACTION"
          ~doc:"Channel data-bus utilization (0..1).")
  in
  let capacity_gb =
    Arg.(
      value & opt float 8.0
      & info [ "capacity-gb" ] ~docv:"GB" ~doc:"DIMM capacity in GB.")
  in
  let run node utilization capacity_gb =
    let cfg = Config.commodity ~node () in
    let ch = Vdram_link.Channel.for_config cfg in
    Format.printf "channel: %a@." Vdram_link.Channel.pp ch;
    Format.printf "link power at %.0f%%: %s (%.2f pJ/bit)@.@."
      (utilization *. 100.0)
      (Vdram_units.Si.format_eng ~unit_symbol:"W"
         (Vdram_link.Channel.power ch ~utilization))
      (Vdram_link.Channel.energy_per_bit ch ~utilization *. 1e12);
    let capacity_bits = capacity_gb *. 8.0 *. (2.0 ** 30.0) in
    Format.printf "DIMM organizations (%.0f GB, %.0f%% utilization):@."
      capacity_gb (utilization *. 100.0);
    List.iter
      (fun r -> Format.printf "  %a@." Vdram_link.Dimm.pp_result r)
      (Vdram_link.Dimm.compare_widths ~node ~capacity_bits
         ~utilization [ 4; 8; 16 ]);
    `Ok ()
  in
  let doc = "Link and DIMM-level power (device + channel)." in
  Cmd.v (Cmd.info "channel" ~doc)
    Term.(ret (const run $ node $ utilization $ capacity_gb))

(* ----- dump -------------------------------------------------------- *)

let dump_cmd =
  let run node density_mbits io_width datarate =
    match load_config ?density_mbits ?io_width ?datarate ~node () with
    | Error e -> fail "%s" e
    | Ok (config, _) ->
      print_string
        (Vdram_dsl.Printer.to_dsl ~pattern:Pattern.paper_example config);
      `Ok ()
  in
  let doc = "Emit the description-language source of a roadmap device." in
  Cmd.v (Cmd.info "dump" ~doc)
    Term.(ret (const run $ node $ density_mbits $ io_width $ datarate))

(* ----- serve ------------------------------------------------------- *)

let serve_cmd =
  let module Server = Vdram_serve.Server in
  let socket =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket at $(docv).")
  in
  let tcp =
    Arg.(
      value
      & opt (some string) None
      & info [ "tcp" ] ~docv:"HOST:PORT"
          ~doc:"Listen on a TCP socket (port 0 picks a free port).")
  in
  let max_inflight =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Concurrent computations; excess requests are rejected \
                with an $(i,overloaded) error and a retry-after hint.")
  in
  let max_clients =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Concurrent connections; excess connections are turned \
                away.")
  in
  let max_frame_bytes =
    Arg.(
      value
      & opt int (1 lsl 20)
      & info [ "max-frame-bytes" ] ~docv:"BYTES"
          ~doc:"Longest accepted request line; longer frames are \
                rejected as bad frames and the stream resynchronises \
                at the next newline.")
  in
  let drain_grace =
    Arg.(
      value & opt float 5.0
      & info [ "drain-grace" ] ~docv:"SECONDS"
          ~doc:"How long a drain (SIGINT/SIGTERM) waits for in-flight \
                requests before force-aborting them.")
  in
  let run socket tcp max_inflight max_clients max_frame_bytes drain_grace
      mk_engine timings =
    let listener =
      match (socket, tcp) with
      | Some _, Some _ -> Error "--socket and --tcp are mutually exclusive"
      | Some path, None -> Ok (Server.Unix_path path)
      | None, Some hostport ->
        (match String.rindex_opt hostport ':' with
         | None -> Error "expected --tcp HOST:PORT"
         | Some i ->
           let host = String.sub hostport 0 i in
           let host = if host = "" then "127.0.0.1" else host in
           (match
              int_of_string_opt
                (String.sub hostport (i + 1)
                   (String.length hostport - i - 1))
            with
            | Some port when port >= 0 && port < 65536 ->
              Ok (Server.Tcp (host, port))
            | _ -> Error "expected --tcp HOST:PORT"))
      | None, None -> Error "pick a listener: --socket PATH or --tcp HOST:PORT"
    in
    match listener with
    | Error e -> fail "serve: %s" e
    | Ok listener ->
      let engine = mk_engine () in
      let cfg =
        {
          (Server.default_config listener) with
          Server.max_inflight;
          max_clients;
          max_frame_bytes;
          drain_grace;
        }
      in
      (match Server.create ~engine cfg with
       | Error e -> fail "serve: %s" e
       | Ok server ->
         Vdram_serve.Signals.install (fun _ -> Server.drain server);
         (match Server.address server with
          | Unix.ADDR_UNIX path ->
            Format.eprintf "vdram serve: listening on %s@." path
          | Unix.ADDR_INET (addr, port) ->
            Format.eprintf "vdram serve: listening on %s:%d@."
              (Unix.string_of_inet_addr addr)
              port);
         Server.serve server;
         Format.eprintf "vdram serve: drained@.";
         report_timings timings engine None;
         `Ok ())
  in
  let doc =
    "Persistent evaluation daemon over line-delimited JSON (see \
     doc/SERVE.md)."
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(
      ret
        (const run $ socket $ tcp $ max_inflight $ max_clients
       $ max_frame_bytes $ drain_grace $ engine_term $ timings_arg))

let () =
  let doc = "flexible analytical DRAM power model (Vogelsang, MICRO 2010)" in
  let info = Cmd.info "vdram" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ power_cmd; verify_cmd; sensitivity_cmd; trends_cmd; schemes_cmd;
            simulate_cmd; corners_cmd; states_cmd; ablate_cmd;
            export_cmd; validate_cmd; lint_cmd;
            check_cmd; advise_cmd; channel_cmd; dump_cmd; serve_cmd ]))
