(* SI prefixes and engineering-notation formatting. *)

let prefixes =
  [ ("T", 1e12); ("G", 1e9); ("M", 1e6); ("k", 1e3); ("", 1.0);
    ("m", 1e-3); ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15);
    ("a", 1e-18) ]

let multiplier p =
  List.assoc_opt p prefixes

let split_prefix s =
  if String.length s = 0 then None
  else
    let first = String.make 1 s.[0] in
    let rest = String.sub s 1 (String.length s - 1) in
    (* Prefer the prefixed reading only when a base unit remains;
       a bare "m" is metres, not a milli-prefix. *)
    match multiplier first with
    | Some mult when String.length rest > 0 -> Some (mult, rest)
    | _ -> Some (1.0, s)

(* Prefixes ordered for display selection. *)
let display_prefixes =
  [ ("T", 1e12); ("G", 1e9); ("M", 1e6); ("k", 1e3); ("", 1.0);
    ("m", 1e-3); ("u", 1e-6); ("n", 1e-9); ("p", 1e-12); ("f", 1e-15);
    ("a", 1e-18) ]

let format_eng ?(digits = 4) ~unit_symbol v =
  if v = 0.0 then Printf.sprintf "0 %s" unit_symbol
  else begin
    let mag = Float.abs v in
    let rec pick = function
      | [] -> ("a", 1e-18)
      | (p, m) :: rest -> if mag >= m *. 0.9999995 then (p, m) else pick rest
    in
    let prefix, mult = pick display_prefixes in
    let mantissa = v /. mult in
    (* Choose decimals so that roughly [digits] significant digits show. *)
    let int_digits =
      let a = Float.abs mantissa in
      if a >= 100.0 then 3 else if a >= 10.0 then 2 else 1
    in
    let decimals = max 0 (digits - int_digits) in
    let s = Printf.sprintf "%.*f" decimals mantissa in
    (* Trim trailing zeros and a dangling point for compactness. *)
    let s =
      if String.contains s '.' then begin
        let n = ref (String.length s) in
        while !n > 1 && s.[!n - 1] = '0' do decr n done;
        if !n > 1 && s.[!n - 1] = '.' then decr n;
        String.sub s 0 !n
      end
      else s
    in
    Printf.sprintf "%s %s%s" s prefix unit_symbol
  end
