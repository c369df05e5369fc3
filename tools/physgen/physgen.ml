(* physgen: derive the interval evaluator and the per-group read sets
   from the float circuit equations.

   Input: the typed trees (.cmt) of the physics modules, in dependency
   order.  Only annotated items are read:

   - [type t = { ... } [@@physics]] gets an interval twin (same fields,
     every [float] an [Interval.t]) and a [lift] function that reads
     each float field through a caller-supplied range function;
   - [let f ... = ... [@@physics]] gets an interval twin in which every
     float operation is its outward-rounded [Interval] counterpart, in
     the source's order, and every literal, int conversion or float
     read off a structural value is a point;
   - [[@@@physics Group]] marks a module as the charge model of the
     circuit group [Contribution.Group]: its annotated functions, and
     everything they call, make up the group's read set.

   [-structural PATH] names a module or type whose values no box moves
   (the floorplan geometry, the bus wiring): its float fields and float
   functions give points.  Anything else the translation cannot carry
   soundly is an error naming the function: a comparison of floats, a
   float pattern, a guard, a float function outside the generated set
   ([Float.min p.a p.b]), a float field of a record that is neither
   twinned nor structural.

   Usage: physgen (-interval FILE | -reads FILE) [-structural PATH]...
   CMT... *)

open Typedtree

exception Reject of string

let current = ref ""

let fail fmt =
  Printf.ksprintf (fun m -> raise (Reject (!current ^ ": " ^ m))) fmt

(* ----- names ------------------------------------------------------- *)

let last name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name (i + 1) (String.length name - i - 1)
  | None -> name

let prefix name =
  match String.rindex_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> ""

(* Dune's wrapped libraries name [Lib.Mod] as [Lib__Mod] and alias
   [Lib__]; print the public name. *)
let public name =
  match String.split_on_char '.' name with
  | first :: rest ->
    let rec split i =
      if i + 1 >= String.length first then [ first ]
      else if first.[i] = '_' && first.[i + 1] = '_' then
        String.sub first 0 i
        :: List.filter (( <> ) "")
             [ String.sub first (i + 2) (String.length first - i - 2) ]
      else split (i + 1)
    in
    String.concat "." (split 0 @ rest)
  | [] -> name

let shown name =
  if String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

(* ----- tables ------------------------------------------------------ *)

type twin = {
  tw_module : string;  (* generated module holding the twin *)
  tw_source : string;  (* public path of the source type *)
  tw_fields : (string * Types.type_expr) list;
}

let twins : (string, twin) Hashtbl.t = Hashtbl.create 8
let physics : (string, unit) Hashtbl.t = Hashtbl.create 64
let structural = ref []

(* Per generated function: the twin-record fields it reads and the
   generated functions it calls, branch-sensitively.  A parameter is
   named by its label, or ["#i"] for the i-th unlabelled one.  A read
   carries the match arms it sits in, as (parameter, constructor)
   pairs; a call carries what it passes to each parameter.  So
   [gate_cap_of p Logic] reads [tox_logic] only, not the oxide of every
   class [tox_of] could select. *)
type arg = Const of string | Param of string | Unknown

let reads : (string, string * string * (string * string) list) Hashtbl.t =
  Hashtbl.create 64

let calls : (string, string * (string * arg) list) Hashtbl.t =
  Hashtbl.create 64

(* While translating one function: how many unlabelled parameters it
   has taken so far ([None] inside its body), its parameters by ident,
   and the arms enclosing the expression. *)
let next_param = ref None
let params : (string, string) Hashtbl.t = Hashtbl.create 8
let arms_in = ref []

(* The name of the parameter (or argument) labelled [l] when [n]
   unlabelled ones precede it, and the unlabelled count after it. *)
let param_key (l : Asttypes.arg_label) n =
  match l with
  | Nolabel -> ("#" ^ string_of_int n, n + 1)
  | Labelled s | Optional s -> (s, n)

let is_structural name =
  List.exists
    (fun p -> name = p || String.starts_with ~prefix:(p ^ ".") name)
    !structural

(* One module being read: its public name, and the public path of each
   module alias and top-level value, by unique ident. *)
type ctx = { modname : string; names : (string, string) Hashtbl.t }

let rec path_name ctx (p : Path.t) =
  match p with
  | Pident id ->
    (match Hashtbl.find_opt ctx.names (Ident.unique_name id) with
     | Some n -> n
     | None when Ident.global id -> public (Ident.name id)
     | None -> ctx.modname ^ "." ^ Ident.name id)
  | Pdot (p, s) -> public (path_name ctx p ^ "." ^ s)
  | _ -> fail "unsupported path %s" (Path.name p)

let local_var ctx (p : Path.t) =
  match p with
  | Pident id
    when not (Ident.global id || Hashtbl.mem ctx.names (Ident.unique_name id))
    ->
    Some id
  | _ -> None

(* ----- types ------------------------------------------------------- *)

(* Predefined paths compare by name (a .cmt read back carries its own
   stamps); [Float.t] is the one abbreviation of float the source
   meets.  Record fields come wrapped in a monomorphic [Tpoly]. *)
let rec is_float ty =
  match Types.get_desc ty with
  | Tconstr (Pident id, _, _) -> Ident.name id = "float"
  | Tconstr (p, _, _) -> Path.name p = "Stdlib.Float.t"
  | Tpoly (t, []) -> is_float t
  | _ -> false

let rec occurs f ty =
  f ty
  ||
  match Types.get_desc ty with
  | Tconstr (_, args, _) | Ttuple args -> List.exists (occurs f) args
  | Tarrow (_, a, b, _) -> occurs f a || occurs f b
  | Tpoly (t, _) -> occurs f t
  | _ -> false

let contains_float = occurs is_float

let has_vars =
  occurs (fun t ->
      match Types.get_desc t with Tvar _ | Tunivar _ -> true | _ -> false)

let rec type_name ctx ty =
  match Types.get_desc ty with
  | Tconstr (p, _, _) -> Some (path_name ctx p)
  | Tpoly (t, []) -> type_name ctx t
  | _ -> None

(* Does a value of this type change representation in the twin: a
   float or a twinned record, outside any structural type? *)
let rec lifted ctx ty =
  is_float ty
  ||
  match Types.get_desc ty with
  | Tconstr (p, args, _) ->
    let name = path_name ctx p in
    Hashtbl.mem twins name
    || ((not (is_structural name)) && List.exists (lifted ctx) args)
  | Tarrow (_, a, b, _) -> lifted ctx a || lifted ctx b
  | Ttuple ts -> List.exists (lifted ctx) ts
  | Tpoly (t, _) -> lifted ctx t
  | _ -> false

(* ----- expressions ------------------------------------------------- *)

(* Translated code, and whether it is in twin representation ([false]:
   a source value — a literal, an int conversion, a structural read). *)
type code = { code : string; twin : bool }

let source code = { code; twin = false }
let twin code = { code; twin = true }
let paren s = "(" ^ s ^ ")"

(* The twin of a value of type [ty]: source floats become points. *)
let as_twin ctx ty c =
  if c.twin || not (lifted ctx ty) then c.code
  else if is_float ty then "(I.point " ^ c.code ^ ")"
  else fail "cannot lift a structural value holding floats"

let arith =
  [ ("+.", "I.add"); ("-.", "I.sub"); ("*.", "I.mul"); ("/.", "I.div");
    ("~-.", "I.neg") ]

let comparisons =
  [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!="; "compare"; "min"; "max" ]

let conversions = [ "Stdlib.float_of_int"; "Stdlib.float" ]

(* Polymorphic functions that only move their values: polymorphic
   equality, comparison or hashing would see intervals where the
   source saw floats, so no other polymorphic function may carry a
   lifted value. *)
let parametric =
  [ "Stdlib.@"; "Stdlib.fst"; "Stdlib.snd"; "Stdlib.List.fold_left";
    "Stdlib.List.map"; "Stdlib.List.concat_map"; "Stdlib.List.rev" ]

let constant (c : Asttypes.constant) =
  let s =
    match c with
    | Const_int n -> string_of_int n
    | Const_float s -> s
    | Const_string (s, _, _) -> Printf.sprintf "%S" s
    | _ -> fail "unsupported constant"
  in
  if s.[0] = '-' then paren s else s

let constructor ctx (cd : Types.constructor_description) =
  match type_name ctx cd.cstr_res with
  | Some name when String.contains name '.' -> prefix name ^ "." ^ cd.cstr_name
  | _ -> cd.cstr_name

(* A value path as source text: operators in parentheses. *)
let value_ref name =
  match (last name).[0] with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' -> name
  | _ -> Printf.sprintf "%s.( %s )" (prefix name) (last name)

(* A twin record's fields, qualified unless written inside its own
   module. *)
let twin_field ctx tw f =
  if tw.tw_module = last ctx.modname then f else tw.tw_module ^ "." ^ f

let label_arg (l : Asttypes.arg_label) code =
  match l with
  | Nolabel -> paren code
  | Labelled s -> Printf.sprintf "~%s:(%s)" s code
  | Optional _ -> fail "optional argument"

(* Variables bound by a pattern take the scrutinee's representation. *)
let rec pattern : type k. ctx -> _ -> bool -> k general_pattern -> string =
 fun ctx env tw p ->
  let sub q = pattern ctx env tw q in
  match p.pat_desc with
  | Tpat_any -> "_"
  | Tpat_var (id, _) | Tpat_alias ({ pat_desc = Tpat_any; _ }, id, _) ->
    (* [(p : P.t)] is an alias of [_]. *)
    Hashtbl.replace env (Ident.unique_name id) tw;
    Ident.name id
  | Tpat_constant (Const_float _) -> fail "float comparison in a pattern"
  | Tpat_constant c -> constant c
  | Tpat_tuple ps -> paren (String.concat ", " (List.map sub ps))
  | Tpat_construct (_, cd, [], _) -> constructor ctx cd
  | Tpat_construct (_, cd, ps, _) ->
    Printf.sprintf "(%s (%s))" (constructor ctx cd)
      (String.concat ", " (List.map sub ps))
  | Tpat_or (a, b, _) -> Printf.sprintf "(%s | %s)" (sub a) (sub b)
  | Tpat_value v -> sub (v :> value general_pattern)
  | _ -> fail "unsupported pattern"

(* The constructor an arm's pattern selects, if it is one. *)
let rec constructor_of : type k. k general_pattern -> string option =
 fun p ->
  match p.pat_desc with
  | Tpat_construct (_, cd, _, _) -> Some cd.cstr_name
  | Tpat_value v -> constructor_of (v :> value general_pattern)
  | _ -> None

let rec expr ctx env e : code =
  let lift x = as_twin ctx x.exp_type (expr ctx env x) in
  match e.exp_desc with
  | Texp_constant c -> source (constant c)
  | Texp_ident (p, _, vd) -> ident ctx env p vd e.exp_type
  | Texp_apply (f, args) -> apply ctx env e f args
  | Texp_let (Nonrecursive, vbs, body) ->
    let binds =
      List.map
        (fun vb ->
          let c = expr ctx env vb.vb_expr in
          Printf.sprintf "let %s = %s in\n" (pattern ctx env c.twin vb.vb_pat)
            c.code)
        vbs
    in
    let b = expr ctx env body in
    { b with code = paren (String.concat "" binds ^ b.code) }
  | Texp_function
      { arg_label; cases = [ { c_lhs; c_guard = None; c_rhs } ]; _ } ->
    let pat = pattern ctx env true c_lhs in
    Option.iter
      (fun n ->
        let key, n = param_key arg_label n in
        (match c_lhs.pat_desc with
         | Tpat_var (id, _) | Tpat_alias (_, id, _) ->
           Hashtbl.replace params (Ident.unique_name id) key
         | _ -> ());
        next_param :=
          match c_rhs.exp_desc with Texp_function _ -> Some n | _ -> None)
      !next_param;
    twin
      (Printf.sprintf "(fun %s -> %s)" (label_arg arg_label pat) (lift c_rhs))
  | Texp_function { arg_label = Nolabel; cases; _ } ->
    let scrut = Option.map (fun n -> "#" ^ string_of_int n) !next_param in
    next_param := None;
    (match Types.get_desc e.exp_type with
     | Tarrow (_, _, result, _) ->
       twin ("(function " ^ arms ctx env true result ?scrut cases ^ ")")
     | _ -> fail "function of a non-arrow type")
  | Texp_match (scrut, cases, _) ->
    let s = expr ctx env scrut in
    let scrut =
      match arg_of ctx scrut with Param k -> Some k | _ -> None
    in
    twin
      (Printf.sprintf "(match %s with %s)" s.code
         (arms ctx env s.twin e.exp_type ?scrut cases))
  | Texp_tuple es -> twin (paren (String.concat ", " (List.map lift es)))
  | Texp_construct (_, cd, args) ->
    (* A declared float argument (not a type variable, as in [Some])
       would need a twin of the variant type. *)
    if List.exists contains_float cd.cstr_args then
      fail "constructor %s carries a float" cd.cstr_name;
    (match (cd.cstr_name, List.map lift args) with
     | "::", [ h; t ] -> twin (Printf.sprintf "(%s :: %s)" h t)
     | _, [] -> twin (constructor ctx cd)
     | _, args ->
       twin
         (Printf.sprintf "(%s (%s))" (constructor ctx cd)
            (String.concat ", " args)))
  | Texp_record { fields; extended_expression = None; _ } ->
    let record = Option.value ~default:"?" (type_name ctx e.exp_type) in
    (match Hashtbl.find_opt twins record with
     | None -> fail "builds a %s, which has no interval twin" record
     | Some tw ->
       let field ((l : Types.label_description), def) =
         match def with
         | Overridden (_, x) ->
           Printf.sprintf "%s = %s" (twin_field ctx tw l.lbl_name) (lift x)
         | Kept _ -> fail "record update"
       in
       twin
         ("{ "
         ^ String.concat "; " (Array.to_list (Array.map field fields))
         ^ " }"))
  | Texp_field (r, _, l) ->
    let record = Option.value ~default:"?" (type_name ctx l.lbl_res) in
    let rc = expr ctx env r in
    (match Hashtbl.find_opt twins record with
     | Some tw ->
       Hashtbl.add reads !current (record, l.lbl_name, !arms_in);
       twin (rc.code ^ "." ^ twin_field ctx tw l.lbl_name)
     | None ->
       if lifted ctx l.lbl_arg && not (is_structural record) then
         fail "reads float field %s of %s, which is neither lifted nor \
               structural" l.lbl_name (shown record);
       source (Printf.sprintf "%s.%s.%s" rc.code (prefix record) l.lbl_name))
  | Texp_ifthenelse (c, a, Some b) ->
    twin
      (Printf.sprintf "(if %s then %s else %s)" (expr ctx env c).code
         (as_twin ctx e.exp_type (expr ctx env a))
         (as_twin ctx e.exp_type (expr ctx env b)))
  | _ -> fail "unsupported construct"

and arms :
    type k.
    ctx -> _ -> bool -> Types.type_expr -> ?scrut:string -> k case list -> string
    =
 fun ctx env tw ty ?scrut cases ->
  String.concat " "
    (List.map
       (fun c ->
         if c.c_guard <> None then fail "guarded match arm";
         let p = pattern ctx env tw c.c_lhs in
         let enclosing = !arms_in in
         (match (scrut, constructor_of c.c_lhs) with
          | Some k, Some cstr -> arms_in := (k, cstr) :: enclosing
          | _ -> ());
         let body = as_twin ctx ty (expr ctx env c.c_rhs) in
         arms_in := enclosing;
         Printf.sprintf "| %s -> %s" p body)
       cases)

(* What an argument passes to a generated callee, for the read sets. *)
and arg_of ctx x =
  match x.exp_desc with
  | Texp_construct (_, cd, []) -> Const cd.cstr_name
  | Texp_ident (p, _, _) -> (
    match local_var ctx p with
    | Some id -> (
      match Hashtbl.find_opt params (Ident.unique_name id) with
      | Some k -> Param k
      | None -> Unknown)
    | None -> Unknown)
  | _ -> Unknown

(* A value from outside the generated set, at its type [ty] here.  A
   [parametric] function cannot look inside the lifted values it
   carries, so it works on twins unchanged; any other function that
   takes or returns a lifted type is float code that was not
   translated — allowed only for int conversions and structural
   functions on source values, giving a source float. *)
and external_fn ctx name (vd : Types.value_description) ty =
  let lifted = lifted ctx ty in
  if lifted && prefix name = "Stdlib" && List.mem (last name) comparisons
  then fail "float comparison %s" (shown name)
  else if (not lifted) || List.mem name parametric then `Parametric
  else if (List.mem name conversions || is_structural name)
          && not (has_vars vd.val_type)
  then `Source
  else fail "%s is outside the generated set" (shown name)

and ident ?(passed = []) ctx env p vd ty =
  match local_var ctx p with
  | Some id ->
    let key = Ident.unique_name id in
    {
      code = Ident.name id;
      twin = Option.value ~default:true (Hashtbl.find_opt env key);
    }
  | None ->
    let name = path_name ctx p in
    if Hashtbl.mem physics name then begin
      Hashtbl.add calls !current (name, passed);
      (* Generated sibling modules are named after their sources. *)
      twin
        (if prefix name = ctx.modname then last name
         else last (prefix name) ^ "." ^ last name)
    end
    else if external_fn ctx name vd ty = `Source then
      fail "%s must be applied" (shown name)
    else twin (value_ref name)

and apply ctx env e f args =
  let translated ~lift =
    List.map
      (fun (l, a) ->
        match a with
        | None -> fail "omitted argument"
        | Some x ->
          let c = expr ctx env x in
          if lift then (l, as_twin ctx x.exp_type c)
          else if c.twin && lifted ctx x.exp_type then
            fail "a lifted value leaves the generated set"
          else (l, c.code))
      args
  in
  let call head args =
    paren
      (String.concat " " (head :: List.map (fun (l, c) -> label_arg l c) args))
  in
  match f.exp_desc with
  | Texp_ident (p, _, vd)
    when local_var ctx p = None && not (Hashtbl.mem physics (path_name ctx p))
    ->
    let name = path_name ctx p in
    (match List.assoc_opt (shown name) arith with
     | Some op -> twin (call op (translated ~lift:true))
     | _ ->
       (* Judged by what the function meets here: its own type may name
          a float abbreviation. *)
       let meets =
         lifted ctx e.exp_type
         || List.exists
              (function _, Some x -> lifted ctx x.exp_type | _ -> false)
              args
       in
       let ty = if meets then Predef.type_float else f.exp_type in
       (match external_fn ctx name vd ty with
        | `Parametric -> twin (call (value_ref name) (translated ~lift:true))
        | `Source -> source (call (value_ref name) (translated ~lift:false))))
  | Texp_ident (p, _, vd) when local_var ctx p = None ->
    (* A generated callee: arguments meet parameters by label, and
       unlabelled ones in order. *)
    let passed =
      List.fold_left_map
        (fun n (l, a) ->
          let key, n = param_key l n in
          (n, (key, Option.fold ~none:Unknown ~some:(arg_of ctx) a)))
        0 args
      |> snd
    in
    let fc = ident ~passed ctx env p vd f.exp_type in
    twin (call fc.code (translated ~lift:true))
  | _ -> twin (call (expr ctx env f).code (translated ~lift:true))

(* ----- modules ----------------------------------------------------- *)

let has_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "physics")
    attrs

type unit_info = {
  ctx : ctx;
  items : structure_item list;
  group : string option;
}

let load file =
  let cmt = Cmt_format.read_cmt file in
  let ctx = { modname = public cmt.cmt_modname; names = Hashtbl.create 32 } in
  current := ctx.modname;
  let items =
    match cmt.cmt_annots with
    | Implementation s -> s.str_items
    | _ -> fail "not an implementation"
  in
  let group = ref None in
  let twin_of d =
    match d.typ_kind with
    | Ttype_record lds when has_attr d.typ_attributes ->
      let source = ctx.modname ^ "." ^ d.typ_name.txt in
      Hashtbl.replace twins source
        {
          tw_module = last ctx.modname;
          tw_source = source;
          tw_fields =
            List.map (fun ld -> (ld.ld_name.txt, ld.ld_type.ctyp_type)) lds;
        }
    | _ -> if has_attr d.typ_attributes then fail "only records have twins"
  in
  let value vb =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) ->
      let name = ctx.modname ^ "." ^ Ident.name id in
      Hashtbl.replace ctx.names (Ident.unique_name id) name;
      if has_attr vb.vb_attributes then Hashtbl.replace physics name ()
    | _ -> ()
  in
  List.iter
    (fun it ->
      match it.str_desc with
      | Tstr_module
          { mb_id = Some id; mb_expr = { mod_desc = Tmod_ident (p, _); _ }; _ }
        ->
        Hashtbl.replace ctx.names (Ident.unique_name id) (path_name ctx p)
      | Tstr_attribute { attr_name = { txt = "physics"; _ }; attr_payload; _ }
        ->
        (match attr_payload with
         | PStr
             [
               {
                 pstr_desc =
                   Pstr_eval
                     ( {
                         pexp_desc =
                           Pexp_construct ({ txt = Lident g; _ }, None);
                         _;
                       },
                       _ );
                 _;
               };
             ] ->
           group := Some g
         | _ -> fail "[@@@physics] wants a group, as in [@@@physics Bus]")
      | Tstr_type (_, decls) -> List.iter twin_of decls
      | Tstr_value (_, vbs) -> List.iter value vbs
      | _ -> ())
    items;
  { ctx; items; group = !group }

let twin_decl ctx tw =
  let field (f, t) =
    let src = Printf.sprintf "%s.%s" ctx.modname f in
    if is_float t then
      (f ^ " : I.t", Printf.sprintf "%s = field (fun r -> r.%s)" f src)
    else if contains_float t then fail "%s: only bare float fields lift" f
    else
      ( f ^ " : " ^ Option.value ~default:"?" (type_name ctx t),
        Printf.sprintf "%s = b.%s" f src )
  in
  let decl, lift = List.split (List.map field tw.tw_fields) in
  let ty = last tw.tw_source in
  Printf.sprintf
    "type %s = {\n  %s;\n}\n\n\
     (* Every float field through [field], the range of a getter. *)\n\
     let %s (field : (%s -> float) -> I.t) (b : %s) : %s = {\n  %s;\n}\n\n"
    ty
    (String.concat ";\n  " decl)
    (if ty = "t" then "lift" else "lift_" ^ ty)
    tw.tw_source tw.tw_source ty
    (String.concat ";\n  " lift)

let interval_module u =
  let ctx = u.ctx in
  let twin_decls =
    Hashtbl.fold
      (fun _ tw acc ->
        if prefix tw.tw_source = ctx.modname then twin_decl ctx tw :: acc
        else acc)
      twins []
  in
  let value vb =
    match vb.vb_pat.pat_desc with
    | Tpat_var (id, _) when has_attr vb.vb_attributes ->
      current := ctx.modname ^ "." ^ Ident.name id;
      next_param := Some 0;
      arms_in := [];
      Hashtbl.reset params;
      let body =
        match vb.vb_expr.exp_desc with
        | Texp_function _ -> (expr ctx (Hashtbl.create 16) vb.vb_expr).code
        (* A float constant of the source is one fixed value. *)
        | _ when is_float vb.vb_expr.exp_type -> "I.point " ^ !current
        | _ -> fail "a physics value must be a function or a float"
      in
      [ Printf.sprintf "let %s =\n  %s\n\n" (Ident.name id) body ]
    | _ -> []
  in
  let values =
    List.concat_map
      (fun it ->
        match it.str_desc with
        | Tstr_value (Nonrecursive, vbs) -> List.concat_map value vbs
        | Tstr_value (Recursive, vbs)
          when List.exists (fun vb -> has_attr vb.vb_attributes) vbs ->
          fail "recursive physics functions"
        | _ -> [])
      u.items
  in
  Printf.sprintf "module %s = struct\n%s%send\n\n" (last ctx.modname)
    (String.concat "" twin_decls)
    (String.concat "" values)

(* ----- read sets --------------------------------------------------- *)

(* The fields a group's functions read, following every call with the
   constructors it passes: a read inside an arm counts unless the
   caller's constant selects another arm. *)
let group_reads u =
  let seen = Hashtbl.create 32 and acc = ref [] in
  let rec go f (known : (string * string) list) =
    if not (Hashtbl.mem seen (f, known)) then begin
      Hashtbl.replace seen (f, known) ();
      let live =
        List.for_all (fun (k, c) ->
            match List.assoc_opt k known with Some c' -> c = c' | None -> true)
      in
      List.iter
        (fun (r, field, arms) -> if live arms then acc := (r, field) :: !acc)
        (Hashtbl.find_all reads f);
      List.iter
        (fun (g, passed) ->
          go g
            (List.filter_map
               (fun (key, a) ->
                 match a with
                 | Const c -> Some (key, c)
                 | Param k -> Option.map (fun c -> (key, c)) (List.assoc_opt k known)
                 | Unknown -> None)
               passed))
        (Hashtbl.find_all calls f)
    end
  in
  Hashtbl.iter (fun f () -> if prefix f = u.ctx.modname then go f []) physics;
  !acc

(* Per group, one predicate per record its functions read, less the
   group's own record (the logic blocks), which the caller compares
   whole: physically equal, or equal in every field read. *)
let read_sets units =
  let groups =
    List.filter_map
      (fun u -> Option.map (fun g -> (g, u.ctx.modname, group_reads u)) u.group)
      units
  in
  let inputs =
    Hashtbl.fold (fun name tw acc -> (name, tw) :: acc) twins []
    |> List.filter (fun (name, _) ->
      List.for_all (fun (_, m, _) -> m <> prefix name) groups
      && List.exists (fun (_, _, read) -> List.mem_assoc name read) groups)
    |> List.sort compare
  in
  let predicate (g, _, read) (record, tw) =
    let fields =
      List.filter (fun (f, _) -> List.mem (record, f) read) tw.tw_fields
    in
    let eq (f, _) =
      Printf.sprintf "a.%s.%s = b.%s.%s" (prefix record) f (prefix record) f
    in
    Printf.sprintf
      "(* The %s group reads %d field(s) of %s. *)\n\
       let %s_%s (a : %s) (b : %s) =\n  %s\n\n"
      g (List.length fields) record (String.lowercase_ascii g)
      (String.lowercase_ascii tw.tw_module)
      record record
      (if fields = [] then "true"
       else "a == b\n  || " ^ String.concat "\n     && " (List.map eq fields))
  in
  String.concat ""
    (List.concat_map (fun g -> List.map (predicate g) inputs) groups)

(* ----- driver ------------------------------------------------------ *)

let () =
  let interval = ref None and reads_out = ref None and cmts = ref [] in
  Arg.parse
    [
      ("-interval", Arg.String (fun f -> interval := Some f), "FILE interval twin");
      ("-reads", Arg.String (fun f -> reads_out := Some f), "FILE read sets");
      ( "-structural",
        Arg.String (fun p -> structural := p :: !structural),
        "PATH module or type whose values no box moves" );
    ]
    (fun f -> cmts := f :: !cmts)
    "physgen (-interval FILE | -reads FILE) [-structural PATH]... CMT...";
  let write path text =
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          ("(* Generated by tools/physgen from the [@@physics] items of the \
            float circuit\n   source; do not edit. *)\n\n\
            [@@@ocaml.warning \"-a\"]\n\n" ^ text))
  in
  try
    let units = List.map load (List.rev !cmts) in
    let modules = List.map interval_module units in
    Option.iter
      (fun path ->
        write path
          ("module I = Vdram_units.Interval\n\n" ^ String.concat "" modules))
      !interval;
    Option.iter (fun path -> write path (read_sets units)) !reads_out
  with Reject m ->
    prerr_endline ("physgen: " ^ m);
    exit 1
