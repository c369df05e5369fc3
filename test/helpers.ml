(* Shared test fixtures and checks. *)

let close ?(eps = 1e-9) msg expected actual =
  let ok =
    if expected = 0.0 then Float.abs actual < eps
    else Float.abs ((actual -. expected) /. expected) < eps
  in
  if not ok then
    Alcotest.failf "%s: expected %.9g, got %.9g" msg expected actual

let close_rel ~rel msg expected actual =
  close ~eps:rel msg expected actual

let check_positive msg v =
  if not (v > 0.0 && Float.is_finite v) then
    Alcotest.failf "%s: expected positive finite, got %g" msg v

let check_true msg b = Alcotest.(check bool) msg true b

(* Cached fixtures: building configs is cheap but not free. *)
let ddr3_1g = lazy (Vdram_configs.Devices.ddr3_1g ~node:Vdram_tech.Node.N65 ())

let ddr3_2g = lazy Vdram_configs.Devices.ddr3_2g

let sdr_128m = lazy Vdram_configs.Devices.sdr_128m

let ddr5_16g = lazy Vdram_configs.Devices.ddr5_16g

let power cfg pattern =
  (Vdram_core.Model.pattern_power cfg pattern).Vdram_core.Report.power

let qcheck = QCheck_alcotest.to_alcotest

(* Machine-readable outputs are read back with the program's own JSON
   parser; [at] walks object members and fails naming the path. *)
let json s =
  match Vdram_json.Json.parse s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable JSON (%s): %S" e s

let at path j =
  List.fold_left
    (fun j k ->
      match Vdram_json.Json.mem k j with
      | Some v -> v
      | None -> Alcotest.failf "JSON lacks member %s" (String.concat "." path))
    j path

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay
    && (String.sub hay i n = needle || go (i + 1))
  in
  go 0
