(* Labelled per-operation energy contributions. *)

type t = {
  label : string;
  domain : Domains.domain;
  energy : float;
}
[@@physics]

(* The circuit group a contribution bundle originates from: the
   granularity of the staged engine's incremental delta-extraction.
   One group per charge-model module (plus the DQ interface, which
   lives at the configuration level). *)
type group = Wordline | Sense_amp | Column | Bus | Interface | Logic

let groups = [ Wordline; Sense_amp; Column; Bus; Interface; Logic ]
let group_count = 6

let group_index = function
  | Wordline -> 0
  | Sense_amp -> 1
  | Column -> 2
  | Bus -> 3
  | Interface -> 4
  | Logic -> 5

let group_name = function
  | Wordline -> "wordline"
  | Sense_amp -> "sense-amp"
  | Column -> "column"
  | Bus -> "bus"
  | Interface -> "interface"
  | Logic -> "logic"

let v ~label ~domain ~energy = { label; domain; energy } [@@physics]

let event ~cap ~voltage = 0.5 *. cap *. voltage *. voltage [@@physics]

let events ~count ~cap ~voltage = count *. event ~cap ~voltage [@@physics]

let scale f t = { t with energy = t.energy *. f }

let total_at_vdd domains contributions =
  List.fold_left
    (fun acc c -> acc +. Domains.at_vdd domains c.domain c.energy)
    0.0 contributions
[@@physics]

let by_label contributions =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl c.label) in
      Hashtbl.replace tbl c.label (prev +. c.energy))
    contributions;
  let items = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  List.sort (fun (_, a) (_, b) -> Float.compare b a) items

let pp ppf t =
  Format.fprintf ppf "%s [%s]: %s" t.label
    (Domains.domain_name t.domain)
    (Vdram_units.Si.format_eng ~unit_symbol:"J" t.energy)
