(* Source spans for diagnostics. *)

type t = {
  file : string option;
  line : int;
  col_start : int;
  col_end : int;
}

let none = { file = None; line = 0; col_start = 0; col_end = 0 }

let is_none t = t.line = 0 && t.file = None

let of_line ?file line = { file; line; col_start = 0; col_end = 0 }

let of_cols ?file ~start ~stop line =
  { file; line; col_start = start; col_end = stop }

let compare a b =
  (* Spanless findings sort after located ones. *)
  let key t =
    ( (if t.line = 0 then 1 else 0),
      Option.value ~default:"" t.file,
      t.line,
      t.col_start )
  in
  Stdlib.compare (key a) (key b)

let pp ppf t =
  match (t.file, t.line) with
  | None, 0 -> ()
  | None, l when t.col_start > 0 -> Format.fprintf ppf "line %d:%d" l t.col_start
  | None, l -> Format.fprintf ppf "line %d" l
  | Some f, 0 -> Format.fprintf ppf "%s" f
  | Some f, l when t.col_start > 0 -> Format.fprintf ppf "%s:%d:%d" f l t.col_start
  | Some f, l -> Format.fprintf ppf "%s:%d" f l
