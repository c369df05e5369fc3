(* Typed requests over the line-delimited JSON protocol; decoding and
   device resolution shared with (and equivalent to) the one-shot
   CLI. *)

module Config = Vdram_core.Config
module Pattern = Vdram_core.Pattern
module Node = Vdram_tech.Node
module Quantity = Vdram_units.Quantity

type config_spec = {
  source : string option;
  node : string option;
  density_mbits : float option;
  io_width : int option;
  datarate : string option;
}

type kind =
  | Ping
  | Stats
  | Eval of { spec : config_spec; pattern : string option }
  | Sensitivity of {
      spec : config_spec;
      pattern : string option;
      top : int;
      variation : float option;
    }
  | Corners of {
      spec : config_spec;
      pattern : string option;
      samples : int;
      spread : float;
    }
  | Sweep of {
      spec : config_spec;
      pattern : string option;
      lens : string;
      factors : float list;
    }

type request = { id : Json.t; kind : kind; deadline : float option }

(* ----- decoding ---------------------------------------------------- *)

exception Bad of string

let badf fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

let field j name conv =
  match Json.mem name j with
  | None -> None
  | Some Json.Null -> None
  | Some v ->
    (match conv v with
     | Some x -> Some x
     | None -> badf "field %S has the wrong type" name)

let spec_of j =
  match Json.mem "config" j with
  | None -> { source = None; node = None; density_mbits = None;
              io_width = None; datarate = None }
  | Some Json.Null -> { source = None; node = None; density_mbits = None;
                        io_width = None; datarate = None }
  | Some c ->
    if Json.obj c = None then badf "field \"config\" must be an object";
    {
      source = field c "source" Json.str;
      node = field c "node" Json.str;
      density_mbits = field c "density_mbits" Json.num;
      io_width = field c "io_width" Json.int_;
      datarate = field c "datarate" Json.str;
    }

let pattern_of j = field j "pattern" Json.str

let factors_of j =
  match Json.mem "factors" j with
  | None | Some Json.Null -> badf "sweep needs a \"factors\" array"
  | Some v ->
    (match Json.list_ v with
     | None -> badf "field \"factors\" must be an array of numbers"
     | Some items ->
       if items = [] then badf "field \"factors\" must not be empty";
       List.map
         (fun item ->
           match Json.num item with
           | Some x when Float.is_finite x -> x
           | _ -> badf "field \"factors\" must be an array of finite numbers")
         items)

let decode j =
  let id = Option.value (Json.mem "id" j) ~default:Json.Null in
  match
    (match Json.obj j with
     | None -> badf "frame must be a JSON object"
     | Some _ -> ());
    let op =
      match field j "op" Json.str with
      | Some op -> op
      | None -> badf "frame needs an \"op\" string"
    in
    let deadline =
      match field j "deadline" Json.num with
      | Some d when d <= 0.0 -> badf "field \"deadline\" must be positive"
      | d -> d
    in
    let kind =
      match op with
      | "ping" -> Ping
      | "stats" -> Stats
      | "eval" -> Eval { spec = spec_of j; pattern = pattern_of j }
      | "sensitivity" ->
        Sensitivity
          {
            spec = spec_of j;
            pattern = pattern_of j;
            top = Option.value (field j "top" Json.int_) ~default:15;
            variation = field j "variation" Json.num;
          }
      | "corners" ->
        Corners
          {
            spec = spec_of j;
            pattern = pattern_of j;
            samples =
              (match Option.value (field j "samples" Json.int_) ~default:200 with
               | n when n < 1 -> badf "field \"samples\" must be >= 1"
               | n when n > 1_000_000 -> badf "field \"samples\" too large"
               | n -> n);
            spread = Option.value (field j "spread" Json.num) ~default:0.10;
          }
      | "sweep" ->
        Sweep
          {
            spec = spec_of j;
            pattern = pattern_of j;
            lens =
              (match field j "lens" Json.str with
               | Some l -> l
               | None -> badf "sweep needs a \"lens\" string");
            factors = factors_of j;
          }
      | op -> badf "unknown op %S" op
    in
    { id; kind; deadline }
  with
  | req -> Ok req
  | exception Bad m -> Error (id, m)

(* ----- coalescing key ---------------------------------------------- *)

let work_key req =
  match req.kind with
  | Ping | Stats -> None
  | kind ->
    (* Everything but the id: two requests with equal keys ask for the
       same computation under the same failure semantics. *)
    Some
      (Vdram_engine.Fingerprint.hex
         (Vdram_engine.Fingerprint.of_value (kind, req.deadline)))

(* ----- device resolution (CLI-equivalent) --------------------------- *)

let parse_node s =
  match Quantity.parse_dim Quantity.Length s with
  | Ok metres -> Ok (Node.of_nm (metres *. 1e9))
  | Error _ ->
    (match float_of_string_opt s with
     | Some nm -> Ok (Node.of_nm nm)
     | None -> Error (Printf.sprintf "bad node %S" s))

let parse_datarate = function
  | None -> Ok None
  | Some s ->
    (match Quantity.parse_dim Quantity.Datarate s with
     | Ok v -> Ok (Some v)
     | Error _ -> Error (Printf.sprintf "bad datarate %S" s))

let resolve_config spec =
  match spec.source with
  | Some src ->
    (match Vdram_dsl.Elaborate.load_string src with
     | Ok { Vdram_dsl.Elaborate.config; pattern; _ } -> Ok (config, pattern)
     | Error e ->
       Error (Format.asprintf "source: %a" Vdram_dsl.Parser.pp_error e))
  | None ->
    let ( let* ) = Result.bind in
    let* node =
      match spec.node with None -> Ok Node.N65 | Some s -> parse_node s
    in
    let* datarate = parse_datarate spec.datarate in
    let density_bits =
      Option.map (fun m -> m *. (2.0 ** 20.0)) spec.density_mbits
    in
    Ok
      ( Config.commodity ?density_bits ?io_width:spec.io_width ?datarate
          ~node (),
        None )

let resolve_pattern config stored arg =
  match arg with
  | Some loop ->
    (match Pattern.parse ~name:"request pattern" loop with
     | Ok p -> Ok p
     | Error e -> Error e)
  | None ->
    Ok
      (match stored with
       | Some p -> p
       | None -> Pattern.idd7_mixed config.Config.spec)
