(* Seeded, order-independent fault injection: the faulted set is a
   pure hash of (seed, batch, index), so any job count reproduces the
   same failures. *)

type stage = Geometry | Extraction | Mix

let stage_name = function
  | Geometry -> "geometry"
  | Extraction -> "extraction"
  | Mix -> "mix"

let stage_of_name = function
  | "geometry" -> Some Geometry
  | "extraction" -> Some Extraction
  | "mix" -> Some Mix
  | _ -> None

type action = Raise of stage | Stall of stage * float

type plan = { seed : int; rate : float; action : action option }

let none = { seed = 0; rate = 0.0; action = None }

exception Injected of string * int * int

let () =
  Printexc.register_printer (function
    | Injected (stage, batch, index) ->
      Some
        (Printf.sprintf "Vdram_engine.Faults.Injected(%s, batch %d, item %d)"
           stage batch index)
    | _ -> None)

(* ----- the per-item decision --------------------------------------- *)

(* splitmix64 finalizer: a few multiplies turn (seed, batch, index)
   into 64 well-mixed bits.  Stateless by construction — no generator
   to advance, so evaluation order cannot leak into the decision. *)
let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

let u01 ~seed k =
  let z =
    mix64
      (Int64.add
         (Int64.mul (Int64.of_int (k + 1)) 0x9E3779B97F4A7C15L)
         (Int64.of_int seed))
  in
  (* Top 53 bits -> [0, 1). *)
  Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0

let faulted plan ~batch ~index =
  plan.rate > 0.0
  && u01 ~seed:plan.seed ((batch * 1_000_003) + index) < plan.rate

(* ----- grammar ------------------------------------------------------ *)

let parse s =
  let clauses =
    String.split_on_char ','
      (String.concat "," (String.split_on_char ';' s))
    |> List.map String.trim
    |> List.filter (fun c -> c <> "")
  in
  let ( let* ) = Result.bind in
  List.fold_left
    (fun acc clause ->
      let* plan = acc in
      match String.index_opt clause '=' with
      | None -> Error (Printf.sprintf "clause %S is not key=value" clause)
      | Some i ->
        let key = String.trim (String.sub clause 0 i) in
        let value =
          String.trim
            (String.sub clause (i + 1) (String.length clause - i - 1))
        in
        (match key with
         | "seed" ->
           (match int_of_string_opt value with
            | Some n -> Ok { plan with seed = n }
            | None -> Error (Printf.sprintf "seed %S is not an integer" value))
         | "rate" ->
           (match float_of_string_opt value with
            | Some r when r >= 0.0 && r <= 1.0 -> Ok { plan with rate = r }
            | _ -> Error (Printf.sprintf "rate %S is not in [0, 1]" value))
         | "raise" ->
           (match stage_of_name value with
            | Some st -> Ok { plan with action = Some (Raise st) }
            | None ->
              Error
                (Printf.sprintf
                   "raise stage %S (want geometry|extraction|mix)" value))
         | "stall" ->
           (match float_of_string_opt value with
            | Some d when d >= 0.0 ->
              Ok { plan with action = Some (Stall (Mix, d)) }
            | _ ->
              Error (Printf.sprintf "stall %S is not a duration" value))
         | _ -> Error (Printf.sprintf "unknown clause %S" clause)))
    (Ok { none with rate = 0.01 })
    clauses

let of_env () =
  match Sys.getenv_opt "VDRAM_FAULTS" with
  | None -> Ok None
  | Some s when String.trim s = "" -> Ok None
  | Some s -> Result.map Option.some (parse s)

let to_string plan =
  let parts =
    [ Printf.sprintf "seed=%d" plan.seed;
      Printf.sprintf "rate=%g" plan.rate ]
    @ (match plan.action with
       | Some (Raise st) -> [ "raise=" ^ stage_name st ]
       | Some (Stall (_, d)) -> [ Printf.sprintf "stall=%g" d ]
       | None -> [])
  in
  String.concat "," parts

(* ----- item context and injection points ---------------------------- *)

type context = { plan : plan option; batch : int; index : int }

let ctx : context option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let with_item ?plan ~batch ~index f =
  let saved = Domain.DLS.get ctx in
  Domain.DLS.set ctx (Some { plan; batch; index });
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx saved) f

let supervised () = Domain.DLS.get ctx <> None

let stage_hook stage =
  match Domain.DLS.get ctx with
  | Some { plan = Some p; batch; index } when faulted p ~batch ~index ->
    (match p.action with
     | Some (Raise s) when s = stage ->
       raise (Injected (stage_name stage, batch, index))
     | Some (Stall (s, d)) when s = stage -> Unix.sleepf d
     | _ -> ())
  | _ -> ()
