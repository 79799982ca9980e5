(* The perf tier's workloads and the instances they solve.

   Every instance is generated by lib/benchgen with the same scale
   parameterisation as [genpb --scale], so [family@scale:seed] here and
   [genpb family --scale scale --seed seed] name the same file. *)

type family = Benchgen.Suite.family

type spec = {
  family : family;
  scale : float;
  seed : int;
}

type t = {
  name : string;
  lb : Bsolo.Options.lb_method;
  proof : bool;  (** solve under proof logging, then check the log *)
  specs : int -> spec list;  (** the instances for workload seed [S] *)
}

let family_name : family -> string = function
  | Grout -> "grout"
  | Synth -> "synth"
  | Mcnc -> "mcnc"
  | Acc -> "acc"
  | Knap -> "knap"

let key s = Printf.sprintf "%s@%g:%d" (family_name s.family) s.scale s.seed
let file_name s = Printf.sprintf "%s-%g-s%d.opb" (family_name s.family) s.scale s.seed

(* [x@k] at seeds [S], [S+1], ..., [S+n-1]. *)
let at family scale n base = List.init n (fun i -> { family; scale; seed = base + i })

let all =
  [
    (* simplex is most of self time: the LP engine's changes show here *)
    {
      name = "lp-bound";
      lb = Lpr;
      proof = false;
      specs = (fun s -> at Mcnc 2.0 3 s @ at Knap 1.5 2 s @ at Grout 2.0 1 s);
    };
    (* many incumbents: the eq. (10)-(13) incumbent cuts and propagation
       weigh as much as simplex *)
    {
      name = "incumbent-search";
      lb = Lpr;
      proof = false;
      specs = (fun s -> at Synth 1.0 3 s);
    };
    (* no LP at all, many cheap nodes: an LP-only change must leave this
       unchanged *)
    {
      name = "mis-nolp";
      lb = Mis;
      proof = false;
      specs = (fun s -> at Mcnc 1.5 2 s @ at Knap 1.0 2 s @ at Acc 20.0 1 s);
    };
    (* search, proof logging and the exact checker reading the log back *)
    {
      name = "certified";
      lb = Lpr;
      proof = true;
      specs =
        (fun s ->
          at Knap 1.5 1 s @ at Mcnc 1.5 1 s @ at Mcnc 2.0 1 s @ at Grout 2.0 1 s);
    };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

(* Same parameterisation as bin/genpb.ml. *)
let generate s =
  let n k = max 1 (int_of_float ((float_of_int k *. s.scale) +. 0.5)) in
  match s.family with
  | Grout ->
    Benchgen.Routing.generate
      ~params:{ Benchgen.Routing.default with width = n 8; height = n 8; nets = n 26 }
      s.seed
  | Synth ->
    Benchgen.Synthesis.generate
      ~params:{ Benchgen.Synthesis.default with nodes = n 28; support_cells = n 14 }
      s.seed
  | Mcnc ->
    Benchgen.Two_level.generate
      ~params:{ Benchgen.Two_level.default with minterms = n 70; implicants = n 40 }
      s.seed
  | Acc -> Benchgen.Acc.generate ~params:{ Benchgen.Acc.default with tasks = n 30 } s.seed
  | Knap ->
    Benchgen.Knapsack.generate
      ~params:{ Benchgen.Knapsack.default with items = n 66; rows = n 31 }
      s.seed

(* Permute the terms of every objective and constraint line of an OPB
   text, driven by [text_seed] (0 leaves the text as printed).  The
   parser sorts terms into normal form, so the parsed problem — and
   therefore every search step — is the same for every [text_seed]; only
   the bytes the parser reads change. *)
let shuffle_terms ~text_seed text =
  if text_seed = 0 then text
  else begin
    let rng = Random.State.make [| text_seed |] in
    let shuffle_line line =
      let words = String.split_on_char ' ' line in
      let rec pairs acc = function
        | c :: l :: rest when c <> "" && (c.[0] = '+' || c.[0] = '-') -> pairs ((c, l) :: acc) rest
        | tail -> (Array.of_list (List.rev acc), tail)
      in
      let head, body = match words with "min:" :: rest -> ([ "min:" ], rest) | _ -> ([], words) in
      let terms, tail = pairs [] body in
      for i = Array.length terms - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = terms.(i) in
        terms.(i) <- terms.(j);
        terms.(j) <- t
      done;
      let flat = Array.fold_right (fun (c, l) acc -> c :: l :: acc) terms [] in
      String.concat " " (head @ flat @ tail)
    in
    String.split_on_char '\n' text
    |> List.map (fun line -> if line = "" || line.[0] = '*' then line else shuffle_line line)
    |> String.concat "\n"
  end

let opb_text ?(text_seed = 0) s = shuffle_terms ~text_seed (Pbo.Opb.to_string (generate s))

(* --- reference answers ----------------------------------------------------- *)

(* One line per instance: [key verdict], where the verdict is the proof
   checker's rendering of the conclusion ("OPTIMAL 50", "SAT 0"); lines
   starting with '#' are comments. *)
let load_references path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i ->
             Some (String.sub line 0 i, String.trim (String.sub line i (String.length line - i)))
           | None -> failwith (Printf.sprintf "malformed reference line %S" line))
