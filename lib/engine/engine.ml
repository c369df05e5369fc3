(* Direct staged evaluation: every item runs geometry, extraction
   (delta against its batch's base) and the mix kernel; the only state
   is a one-slot base-extraction memo and the pool size. *)

module Config = Vdram_core.Config
module Model = Vdram_core.Model
module Pattern = Vdram_core.Pattern
module Report = Vdram_core.Report
module Floorplan = Vdram_floorplan.Floorplan

type geometry = {
  geometry : Vdram_floorplan.Array_geometry.t;
  page_bits : int;
  activated_bits : int;
  die_area : float;
  array_efficiency : float;
}

(* The base slot holds one immutable (configuration, extraction) pair,
   read and replaced atomically, so worker domains and the serve
   daemon's connection threads can share it: a reader either sees a
   pair whose configuration is physically its base, and uses that
   pair's extraction, or recomputes.  Last writer wins. *)
type t = {
  jobs : int;
  base : (Config.t * Model.extraction) option Atomic.t;
}

type store = unit

exception Stage_error of string * exn

let () =
  Printexc.register_printer (function
    | Stage_error (stage, inner) ->
      Some
        (Printf.sprintf "Vdram_engine.Engine.Stage_error(%s: %s)" stage
           (Printexc.to_string inner))
    | _ -> None)

let create ?jobs ?store () =
  ignore (store : store option);
  let jobs =
    match jobs with Some j -> max 1 j | None -> Pool.default_jobs ()
  in
  { jobs; base = Atomic.make None }

let serial () = create ~jobs:1 ()
let jobs t = t.jobs

(* Benchmark shims; see engine.mli. *)
let store_open ~dir () = ignore (dir : string)
let flush_store (_ : t) = ()

(* Dense per-pattern command counts for the flat mix kernel, computed
   once per pattern per domain — batches share one pattern value, so
   this hits for every item after the first. *)
let pat_counts_memo : (Pattern.t * float array) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let pattern_counts (p : Pattern.t) =
  match Domain.DLS.get pat_counts_memo with
  | Some (q, v) when q == p -> v
  | _ ->
    let v = Model.op_count_vector p in
    Domain.DLS.set pat_counts_memo (Some (p, v));
    v

(* ----- stages ------------------------------------------------------ *)

(* Under a supervised item (Faults.with_item context), a stage failure
   is tagged with the stage it escaped from so the failure record can
   attribute it; the innermost stage wins (an inner Stage_error passes
   through unchanged).  Outside supervision exceptions propagate
   unwrapped. *)
let guard stage f =
  if not (Faults.supervised ()) then f ()
  else
    try f () with
    | (Faults.Injected _ | Stage_error _) as e -> raise e
    | e ->
      let bt = Printexc.get_raw_backtrace () in
      Printexc.raise_with_backtrace (Stage_error (stage, e)) bt

(* Every stage entry fires its fault hook first, so whether an item is
   faulted depends only on (seed, batch, index). *)
let stage s f =
  Faults.stage_hook s;
  guard (Faults.stage_name s) f

let geometry _t (cfg : Config.t) =
  stage Faults.Geometry (fun () ->
      {
        geometry = Config.geometry cfg;
        page_bits = Config.page_bits cfg;
        activated_bits = Config.activated_bits cfg;
        die_area = Floorplan.die_area cfg.Config.floorplan;
        array_efficiency = Floorplan.array_efficiency cfg.Config.floorplan;
      })

let base_extraction t (b : Config.t) =
  match Atomic.get t.base with
  | Some (c, ex) when c == b -> ex
  | _ ->
    let ex = Model.extract b in
    Atomic.set t.base (Some (b, ex));
    ex

let extraction ?base t (cfg : Config.t) =
  match base with
  | Some b when b == cfg ->
    stage Faults.Geometry ignore;
    stage Faults.Extraction (fun () -> base_extraction t cfg)
  | _ ->
    let geometry, activated_bits =
      stage Faults.Geometry (fun () ->
          (Config.geometry cfg, Config.activated_bits cfg))
    in
    stage Faults.Extraction (fun () ->
        match base with
        | None -> Model.extract ~activated_bits ~geometry cfg
        | Some b ->
          fst
            (Model.extract_delta ~activated_bits ~geometry
               ~base:(base_extraction t b) cfg))

let eval ?base t (cfg : Config.t) pattern =
  stage Faults.Mix (fun () ->
      let ex = extraction ?base t cfg in
      Model.pattern_power_staged ~counts:(pattern_counts pattern) ex cfg
        pattern)

let power ?base t cfg pattern = (eval ?base t cfg pattern).Report.power
let current ?base t cfg pattern = (eval ?base t cfg pattern).Report.current

let energy_per_bit ?base t cfg pattern =
  (eval ?base t cfg pattern).Report.energy_per_bit

let op_energy ?base t cfg kind =
  Model.extraction_energy (extraction ?base t cfg) kind

let map_jobs t f xs = Pool.map ~jobs:t.jobs f xs

(* Benchmark shim; see engine.mli. *)
type stage_stats = { hits : int; misses : int }
type stats = { extraction_stats : stage_stats; mix_stats : stage_stats }

let stats (_ : t) =
  let zero = { hits = 0; misses = 0 } in
  { extraction_stats = zero; mix_stats = zero }
