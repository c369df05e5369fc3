(* Model output record and printing. *)

type t = {
  config_name : string;
  pattern_name : string;
  power : float;
  current : float;
  background_power : float;
  loop_time : float;
  bits_per_loop : float;
  energy_per_bit : float option;
  op_rates : (Operation.kind * float) list;
  breakdown : (string * float) list;
}

let is_finite t =
  Float.is_finite t.power && Float.is_finite t.current
  && Float.is_finite t.background_power
  && Float.is_finite t.loop_time
  && Float.is_finite t.bits_per_loop
  && (match t.energy_per_bit with
     | None -> true
     | Some e -> Float.is_finite e)
  && List.for_all (fun (_, r) -> Float.is_finite r) t.op_rates
  && List.for_all (fun (_, w) -> Float.is_finite w) t.breakdown

let pp_header ppf t =
  Format.fprintf ppf "%s | %s: %s (%s)" t.config_name t.pattern_name
    (Vdram_units.Si.format_eng ~unit_symbol:"W" t.power)
    (Vdram_units.Si.format_eng ~unit_symbol:"A" t.current);
  match t.energy_per_bit with
  | Some e ->
    Format.fprintf ppf ", %s/bit"
      (Vdram_units.Si.format_eng ~unit_symbol:"J" e)
  | None -> ()

let pp_breakdown ~limit ppf t =
  let entries =
    match limit with
    | Some n ->
      List.filteri (fun i _ -> i < n) t.breakdown
    | None -> t.breakdown
  in
  List.iter
    (fun (label, w) ->
      Format.fprintf ppf "@,  %-36s %10s  %5.1f%%" label
        (Vdram_units.Si.format_eng ~unit_symbol:"W" w)
        (100.0 *. w /. t.power))
    entries

let pp ppf t =
  Format.fprintf ppf "@[<v>%a%a@]" pp_header t (pp_breakdown ~limit:(Some 8)) t

type category =
  | Array
  | Row_path
  | Column_path
  | Data_path
  | Interface
  | Clocking
  | Peripheral_logic
  | Static

let category_name = function
  | Array -> "cell array"
  | Row_path -> "row path"
  | Column_path -> "column path"
  | Data_path -> "data path"
  | Interface -> "interface"
  | Clocking -> "clocking"
  | Peripheral_logic -> "peripheral logic"
  | Static -> "static"

let has_prefix prefix label =
  String.length label >= String.length prefix
  && String.sub label 0 (String.length prefix) = prefix

let category_of_label label =
  if
    List.exists
      (fun p -> has_prefix p label)
      [ "bitline"; "cell restore"; "sense amplifier" ]
  then Array
  else if
    List.exists
      (fun p -> has_prefix p label)
      [ "master wordline"; "local wordline"; "wordline select";
        "row decode"; "row address"; "logic: row command" ]
  then Row_path
  else if
    List.exists
      (fun p -> has_prefix p label)
      [ "column"; "local data lines"; "master array data lines";
        "secondary sense amplifier"; "write drivers";
        "logic: column command" ]
  then Column_path
  else if
    List.exists
      (fun p -> has_prefix p label)
      [ "read data bus"; "write data bus"; "logic: serializer" ]
  then Data_path
  else if
    List.exists
      (fun p -> has_prefix p label)
      [ "DQ pre-drivers"; "DQ receivers"; "input receiver bias" ]
  then Interface
  else if
    List.exists
      (fun p -> has_prefix p label)
      [ "clock"; "logic: clock"; "logic: DLL" ]
  then Clocking
  else if has_prefix "constant current" label then Static
  else Peripheral_logic

let by_category t =
  let totals = Hashtbl.create 8 in
  List.iter
    (fun (label, w) ->
      let c = category_of_label label in
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt totals c) in
      Hashtbl.replace totals c (prev +. w))
    t.breakdown;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) totals []
  |> List.sort (fun (_, a) (_, b) -> Float.compare b a)

let pp_full ppf t =
  Format.fprintf ppf "@[<v>%a@,background: %s@,loop: %s, %.0f bits%a@]"
    pp_header t
    (Vdram_units.Si.format_eng ~unit_symbol:"W" t.background_power)
    (Vdram_units.Si.format_eng ~unit_symbol:"s" t.loop_time)
    t.bits_per_loop
    (pp_breakdown ~limit:None) t
