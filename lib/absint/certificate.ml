(* The machine-readable certificate `vdram check --certify` emits.

   The JSON is a contract: a future `vdram search` pruner reads the
   monotonicity entries to discard dominated candidates, and
   downstream tooling reads the bound entries as guaranteed
   envelopes.  Json prints each float in its shortest form that
   parses back to the same double, so readers get the exact doubles
   certified. *)

module I = Vdram_units.Interval
module Config = Vdram_core.Config
module Node = Vdram_tech.Node
module Model = Vdram_core.Model
module Report = Vdram_core.Report
module Operation = Vdram_core.Operation
module Pattern = Vdram_core.Pattern
module Lenses = Vdram_analysis.Lenses

type sweep_entry = {
  node : string;
  legal : bool;
  violations : string list;  (** human-readable, empty when legal *)
}

type sweep = {
  authored_node : string;
  authored_legal : bool;
  entries : sweep_entry list;
}

type samples = { count : int; contained : bool }

type t = {
  config : Config.t;
  pattern : Pattern.t;
  box : Abox.t;
  splits : int;
  bounds : Bounds.t;
  nominal : Report.t;
  monotonicity : Monotone.certificate list;
  sweep : sweep option;
  samples : samples option;
}

let v ?sweep ?samples ~config ~pattern ~box ~splits ~bounds ~monotonicity ()
    =
  {
    config;
    pattern;
    box;
    splits;
    bounds;
    nominal = Model.pattern_power config pattern;
    monotonicity;
    sweep;
    samples;
  }

(* ----- JSON -------------------------------------------------------- *)

module Json = Vdram_json.Json

let str s = Json.Str s
let num x = Json.Num x
let int n = Json.Num (float_of_int n)
let option f = function Some x -> f x | None -> Json.Null

let bound (i : I.t) extra =
  Json.Obj ([ ("lo", num i.I.lo); ("hi", num i.I.hi) ] @ extra)

let axis (a : Abox.axis) =
  Json.Obj
    [
      ("lens", str a.Abox.lens.Lenses.name);
      ("group", str (Lenses.group_name a.Abox.lens.Lenses.group));
      ("scale_lo", num (a.Abox.scale : I.t).I.lo);
      ("scale_hi", num (a.Abox.scale : I.t).I.hi);
    ]

let monotone (m : Monotone.certificate) =
  Json.Obj
    [
      ("lens", str m.Monotone.lens);
      ("group", str (Lenses.group_name m.Monotone.group));
      ("metric", str (Monotone.metric_name m.Monotone.metric));
      ("scale_lo", num m.Monotone.lo);
      ("scale_hi", num m.Monotone.hi);
      ( "direction",
        option
          (fun d -> str (Monotone.direction_name d))
          m.Monotone.direction );
      ("cells", int m.Monotone.cells);
      ("resolution", num m.Monotone.resolution);
    ]

let sweep_entry e =
  Json.Obj
    [
      ("node", str e.node);
      ("legal", Json.Bool e.legal);
      ("violations", Json.List (List.map str e.violations));
    ]

let sweep s =
  Json.Obj
    [
      ("authored_node", str s.authored_node);
      ("authored_legal", Json.Bool s.authored_legal);
      ("generations", Json.List (List.map sweep_entry s.entries));
    ]

let samples s =
  Json.Obj [ ("count", int s.count); ("contained", Json.Bool s.contained) ]

let to_json t =
  let b = t.bounds and n = t.nominal in
  let nominal x = [ ("nominal", num x) ] in
  Json.to_string
    (Json.Obj
       [
         ("certificate_version", int 1);
         ("model_version", str Model.version);
         ( "config",
           Json.Obj
             [
               ("name", str t.config.Config.name);
               ("node", str (Node.name t.config.Config.node));
             ] );
         ("pattern", str t.pattern.Pattern.name);
         ("axes", Json.List (List.map axis (Abox.axes t.box)));
         ("splits", int t.splits);
         ("pieces", int b.Bounds.pieces);
         ( "bounds",
           Json.Obj
             [
               ("power", bound b.Bounds.power (nominal n.Report.power));
               ("current", bound b.Bounds.current (nominal n.Report.current));
               ( "background",
                 bound b.Bounds.background
                   (nominal n.Report.background_power) );
               ( "energy_per_bit",
                 match (b.Bounds.energy_per_bit, n.Report.energy_per_bit) with
                 | Some i, Some e -> bound i (nominal e)
                 | _ -> Json.Null );
               ( "op_energy",
                 Json.Obj
                   (List.map
                      (fun (kind, i) -> (Operation.name kind, bound i []))
                      b.Bounds.op_energy) );
             ] );
         ("monotonicity", Json.List (List.map monotone t.monotonicity));
         ("sweep_legality", option sweep t.sweep);
         ("samples", option samples t.samples);
       ])
