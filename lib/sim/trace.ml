(* Request traces and deterministic workload generators. *)

type request = {
  arrival : int;
  bank : int;
  row : int;
  column : int;
  is_write : bool;
}

type t = request list

let address_of ~banks ~rows ~columns addr =
  let addr = Int64.to_int (Int64.logand addr 0x3FFFFFFFFFFFFFL) in
  let bank = addr mod banks in
  let rest = addr / banks in
  let column = rest mod columns in
  let row = rest / columns mod rows in
  (bank, row, column)

type rng = { mutable state : int64 }

let rng seed = { state = Int64.of_int (max 1 seed) }

(* Numerical Recipes LCG on 64 bits. *)
let next r =
  r.state <-
    Int64.add (Int64.mul r.state 6364136223846793005L) 1442695040888963407L;
  Int64.to_int (Int64.shift_right_logical r.state 17)

let next_below r n = if n <= 0 then 0 else next r mod n

let next_float r = float_of_int (next_below r 1_000_000) /. 1_000_000.0

let uniform ~rng ~requests ~arrival_gap ~banks ~rows ~columns
    ~write_fraction =
  List.init requests (fun i ->
      {
        arrival = i * arrival_gap;
        bank = next_below rng banks;
        row = next_below rng rows;
        column = next_below rng columns;
        is_write = next_float rng < write_fraction;
      })

let streaming ~requests ~arrival_gap ~banks ~rows ~columns ~write_fraction =
  List.init requests (fun i ->
      let bank, row, column =
        address_of ~banks ~rows ~columns (Int64.of_int i)
      in
      {
        arrival = i * arrival_gap;
        bank;
        row;
        column;
        (* Deterministic read/write interleave at the requested ratio. *)
        is_write =
          write_fraction > 0.0
          && i mod max 1 (int_of_float (1.0 /. write_fraction)) = 0;
      })

let hotspot ~rng ~requests ~arrival_gap ~banks ~rows ~columns
    ~write_fraction ~hot_rows ~hot_fraction =
  List.init requests (fun i ->
      let hot = next_float rng < hot_fraction in
      let row =
        if hot then next_below rng (max 1 hot_rows)
        else next_below rng rows
      in
      {
        arrival = i * arrival_gap;
        bank = next_below rng banks;
        row;
        column = next_below rng columns;
        is_write = next_float rng < write_fraction;
      })

let idle_gaps ~rng ~trace ~burst ~gap =
  ignore rng;
  let _, reversed =
    List.fold_left
      (fun (i, acc) r ->
        let bursts_before = i / max 1 burst in
        let arrival = r.arrival + (bursts_before * gap) in
        (i + 1, { r with arrival } :: acc))
      (0, []) trace
  in
  List.rev reversed

let idle_gaps ~rng t ~burst ~gap = idle_gaps ~rng ~trace:t ~burst ~gap

let save path t =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "# vdram trace: arrival R|W bank row column\n";
      List.iter
        (fun r ->
          Printf.fprintf oc "%d %c %d %d %d\n" r.arrival
            (if r.is_write then 'W' else 'R')
            r.bank r.row r.column)
        t)

let load path =
  try
    let lines =
      In_channel.with_open_text path In_channel.input_lines
    in
    let parse lineno line =
      let line = String.trim line in
      if line = "" || line.[0] = '#' then Ok None
      else
        match
          String.split_on_char ' ' line |> List.filter (fun s -> s <> "")
        with
        | [ arrival; rw; bank; row; column ] ->
          (match
             ( int_of_string_opt arrival,
               int_of_string_opt bank,
               int_of_string_opt row,
               int_of_string_opt column,
               String.uppercase_ascii rw )
           with
           | Some arrival, Some bank, Some row, Some column, ("R" | "W") ->
             Ok
               (Some
                  {
                    arrival;
                    bank;
                    row;
                    column;
                    is_write = String.uppercase_ascii rw = "W";
                  })
           | _ ->
             Error (Printf.sprintf "%s:%d: malformed request" path lineno))
        | _ -> Error (Printf.sprintf "%s:%d: expected 5 fields" path lineno)
    in
    let rec go acc lineno = function
      | [] -> Ok (List.rev acc)
      | line :: rest ->
        (match parse lineno line with
         | Ok (Some r) -> go (r :: acc) (lineno + 1) rest
         | Ok None -> go acc (lineno + 1) rest
         | Error _ as e -> e)
    in
    go [] 1 lines
  with Sys_error msg -> Error msg
