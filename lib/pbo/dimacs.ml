exception Parse_error of string

let parse_lines lines =
  let builder = Problem.Builder.create () in
  let pending = ref [] in
  let feed lineno line =
    let line = String.trim line in
    if line = "" || line.[0] = 'c' then ()
    else if line.[0] = 'p' then begin
      match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
      | [ "p"; "cnf"; nv; _nc ] ->
        (match int_of_string_opt nv with
        | Some n when n > Problem.max_variable_index ->
          raise
            (Parse_error
               (Printf.sprintf "line %d: variable count %d exceeds the limit 2^24" lineno n))
        | Some n when n >= 0 ->
          for _ = Problem.Builder.nvars builder + 1 to n do
            ignore (Problem.Builder.fresh_var builder)
          done
        | Some _ | None ->
          raise (Parse_error (Printf.sprintf "line %d: bad variable count" lineno)))
      | _ -> raise (Parse_error (Printf.sprintf "line %d: malformed problem line" lineno))
    end
    else begin
      let tokens = String.split_on_char ' ' line |> List.filter (fun s -> s <> "") in
      let feed_token tok =
        match int_of_string_opt tok with
        | None -> raise (Parse_error (Printf.sprintf "line %d: bad literal %S" lineno tok))
        | Some 0 ->
          if !pending = [] then
            raise (Parse_error (Printf.sprintf "line %d: empty clause" lineno));
          Problem.Builder.add_clause builder (List.rev !pending);
          pending := []
        | Some k ->
          (* compared on both sides: [abs min_int] overflows *)
          if k > Problem.max_variable_index || k < -Problem.max_variable_index then
            raise
              (Parse_error
                 (Printf.sprintf "line %d: literal %d exceeds the variable limit 2^24" lineno k));
          pending := Lit.make (abs k - 1) (k > 0) :: !pending
      in
      List.iter feed_token tokens
    end
  in
  List.iteri (fun i line -> feed (i + 1) line) lines;
  if !pending <> [] then raise (Parse_error "final clause not terminated by 0");
  Problem.Builder.build builder

let parse_string s = parse_lines (String.split_on_char '\n' s)

let parse_file path =
  let ic = open_in path in
  let rec read acc =
    match input_line ic with
    | line -> read (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  let lines = read [] in
  close_in ic;
  parse_lines lines
