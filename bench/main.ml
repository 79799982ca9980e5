(* Benchmark harness entry point.

   Subcommands:
     table1            regenerate the paper's Table 1 (default)
     ablation-bc       ablation A: non-chronological vs chronological bound conflicts
     ablation-branch   ablation B: LP-guided vs VSIDS branching
     ablation-knapsack ablation C: incumbent cuts on/off
     ablation-lgr      LGR subgradient iteration budget
     all               table1 + all ablations + scaling + extension-cp

   The cost of one lower-bound evaluation is the perf tier's
   [lb.us_per_call] row (bench/perf). *)

let usage () =
  print_endline
    "usage: main.exe \
     [table1|ablation-bc|ablation-branch|ablation-knapsack|ablation-lgr|ablation-strengthen|ablation-cuts|scaling|extension-cp|all]\n\
    \       [--limit SECS] [--scale S] [--per-family N] [--json FILE]"

let () =
  let limit = ref 3.0 in
  let scale = ref 1.0 in
  let per_family = ref 10 in
  let json = ref None in
  let command = ref "all" in
  let rec parse = function
    | [] -> ()
    | "--limit" :: v :: rest ->
      limit := float_of_string v;
      parse rest
    | "--scale" :: v :: rest ->
      scale := float_of_string v;
      parse rest
    | "--per-family" :: v :: rest ->
      per_family := int_of_string v;
      parse rest
    | "--json" :: v :: rest ->
      json := Some v;
      parse rest
    | ("--help" | "-h") :: _ ->
      usage ();
      exit 0
    | cmd :: rest ->
      command := cmd;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let limit = !limit and scale = !scale and per_family = !per_family in
  let table1 () = Table1.run ?json:!json ~limit ~scale ~per_family () in
  let ablation which title =
    Printf.printf "\n=== %s ===\n" title;
    Ablation.run ~limit ~scale ~per_family which ()
  in
  match !command with
  | "table1" -> table1 ()
  | "ablation-bc" -> ablation `Bound_conflicts "Ablation A: bound-conflict backtracking"
  | "ablation-branch" -> ablation `Branching "Ablation B: branching rule"
  | "ablation-knapsack" -> ablation `Knapsack "Ablation C: incumbent cuts"
  | "ablation-lgr" -> ablation `Lgr_iters "Ablation D: LGR iteration budget"
  | "ablation-strengthen" -> ablation `Strengthen "Ablation E: constraint strengthening"
  | "ablation-cuts" -> ablation `Cut_pool "Ablation F: cut pool + presolve"
  | "scaling" -> Scaling.run ~limit ~per_family ()
  | "extension-cp" -> Cp_extension.run ~limit ~scale ~per_family ()
  | "all" ->
    table1 ();
    ablation `Bound_conflicts "Ablation A: bound-conflict backtracking";
    ablation `Branching "Ablation B: branching rule";
    ablation `Knapsack "Ablation C: incumbent cuts";
    ablation `Lgr_iters "Ablation D: LGR iteration budget";
    ablation `Strengthen "Ablation E: constraint strengthening";
    ablation `Cut_pool "Ablation F: cut pool + presolve";
    print_newline ();
    Scaling.run ~limit:(min limit 2.0) ~per_family:(min per_family 3) ();
    print_newline ();
    Cp_extension.run ~limit ~scale ~per_family:(min per_family 5) ()
  | other ->
    Printf.eprintf "unknown command %S\n" other;
    usage ();
    exit 2
