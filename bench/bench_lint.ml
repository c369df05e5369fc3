(* Benchmark of the lint pipeline: times a full `vdram lint` run —
   parse, dimensional analysis, accumulating elaboration and every
   semantic pass — over each shipped example description, plus the
   SARIF rendering of the combined reports, and writes the estimates
   to BENCH_lint.json. *)

open Bechamel
open Toolkit

module Json = Vdram_json.Json
module Lint = Vdram_lint.Lint

let examples_dir = "examples"

let examples () =
  if Sys.file_exists examples_dir && Sys.is_directory examples_dir then
    Sys.readdir examples_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".dram")
    |> List.sort compare
    |> List.map (fun f ->
           let path = Filename.concat examples_dir f in
           (f, In_channel.with_open_text path In_channel.input_all))
  else []

let silent f () =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ()

let tests sources =
  let lint_one (name, source) =
    Test.make ~name:("lint " ^ name)
      (Staged.stage (fun () -> ignore (Lint.run ~file:name source)))
  in
  let all_reports () = List.map (fun (n, s) -> Lint.run ~file:n s) sources in
  Test.make_grouped ~name:"lint"
    (List.map lint_one sources
    @ [
        Test.make ~name:"lint all examples"
          (Staged.stage (fun () -> ignore (all_reports ())));
        Test.make ~name:"render sarif"
          (let reports = all_reports () in
           Staged.stage (fun () -> ignore (Lint.to_sarif reports)));
        Test.make ~name:"render text"
          (let reports = all_reports () in
           Staged.stage
             (silent (fun ppf ->
                  List.iter (fun r -> Lint.pp_text ppf r) reports)));
      ])

let () =
  let sources = examples () in
  if sources = [] then
    print_endline "bench_lint: no examples/*.dram found, nothing to time"
  else begin
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
    in
    let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (tests sources) in
    let results =
      Analyze.all
        (Analyze.ols ~r_square:false ~bootstrap:0
           ~predictors:[| Measure.run |])
        Instance.monotonic_clock raw
    in
    let rows =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) results []
      |> List.sort compare
    in
    let estimates =
      List.filter_map
        (fun (name, ols) ->
          match Analyze.OLS.estimates ols with
          | Some [ ns ] -> Some (name, ns)
          | _ -> None)
        rows
    in
    Printf.printf "lint benchmark over %d example descriptions\n"
      (List.length sources);
    List.iter
      (fun (name, ns) ->
        Printf.printf "  %-45s %12.1f us/run\n" name (ns /. 1e3))
      estimates;
    let json =
      Json.Obj
        [
          ("benchmark", Json.Str "lint");
          ("unit", Json.Str "ns/run");
          ("examples", Json.Num (float_of_int (List.length sources)));
          ( "entries",
            Json.List
              (List.map
                 (fun (name, ns) ->
                   Json.Obj
                     [ ("name", Json.Str name); ("ns_per_run", Json.Num ns) ])
                 estimates) );
        ]
    in
    Out_channel.with_open_text "BENCH_lint.json" (fun oc ->
        Out_channel.output_string oc (Json.to_string json ^ "\n"));
    print_endline "wrote BENCH_lint.json"
  end
