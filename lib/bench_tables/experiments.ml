module Bitset = Lalr_sets.Bitset
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Slr = Lalr_baselines.Slr
module Lr1 = Lalr_baselines.Lr1
module Propagation = Lalr_baselines.Propagation
module Nqlalr = Lalr_baselines.Nqlalr
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify
module Registry = Lalr_suite.Registry
module Family = Lalr_suite.Family
module Engine = Lalr_engine.Engine

(* ------------------------------------------------------------------ *)
(* Table rendering                                                    *)
(* ------------------------------------------------------------------ *)

let print_table ppf ~title ~header rows =
  let ncols = List.length header in
  let widths = Array.of_list (List.map String.length header) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell -> widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let pad i s = Printf.sprintf "%-*s" widths.(i) s in
  let rule =
    String.concat "-+-"
      (List.init ncols (fun i -> String.make widths.(i) '-'))
  in
  Format.fprintf ppf "@.%s@.%s@." title (String.make (String.length title) '=');
  Format.fprintf ppf "%s@."
    (String.concat " | " (List.mapi pad header));
  Format.fprintf ppf "%s@." rule;
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@." (String.concat " | " (List.mapi pad row)))
    rows

(* One engine per language grammar, shared by every table of a process:
   T1's automaton is T2's, T2's relations are T3's, and so on — each
   stage of the pipeline is paid exactly once per grammar no matter how
   many experiments run. *)
let engines_l =
  lazy
    (List.map
       (fun (e : Registry.entry) -> (e.name, Engine.create (Lazy.force e.grammar)))
       Registry.languages)

let engines () = Lazy.force engines_l

(* ------------------------------------------------------------------ *)
(* T1                                                                 *)
(* ------------------------------------------------------------------ *)

let t1 ppf =
  let rows =
    List.map
      (fun (name, eng) ->
        let g = Engine.grammar eng in
        let a = Engine.lr0 eng in
        let states, kernel_items, transitions = Lr0.size_report a in
        [
          name;
          string_of_int (Grammar.n_terminals g - 1);
          string_of_int (Grammar.n_nonterminals g - 1);
          string_of_int (Grammar.n_productions g - 1);
          string_of_int (Grammar.symbols_count g);
          string_of_int states;
          string_of_int kernel_items;
          string_of_int transitions;
          string_of_int (Lr0.n_nt_transitions a);
        ])
      (engines ())
  in
  print_table ppf ~title:"T1 — grammar suite statistics"
    ~header:
      [
        "grammar"; "terms"; "nonterms"; "prods"; "|G|"; "LR0 states";
        "kernel items"; "transitions"; "nt transitions";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* T2                                                                 *)
(* ------------------------------------------------------------------ *)

let t2 ppf =
  let rows =
    List.map
      (fun (name, eng) ->
        let s = Lalr.stats (Engine.lalr eng) in
        [
          name;
          string_of_int s.Lalr.n_nt_transitions;
          string_of_int s.Lalr.dr_total;
          string_of_int s.Lalr.reads_edges;
          string_of_int s.Lalr.includes_edges;
          string_of_int s.Lalr.lookback_edges;
          string_of_int (List.length s.Lalr.reads_sccs);
          string_of_int (List.length s.Lalr.includes_sccs);
        ])
      (engines ())
  in
  print_table ppf ~title:"T2 — relation sizes"
    ~header:
      [
        "grammar"; "nt trans"; "Σ|DR|"; "reads"; "includes"; "lookback";
        "reads cycles"; "includes cycles";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* T3                                                                 *)
(* ------------------------------------------------------------------ *)

let t3 ppf =
  let rows =
    List.map
      (fun (name, eng) ->
        let s = Lalr.stats (Engine.lalr eng) in
        let ps = Propagation.stats (Engine.propagation eng) in
        let tbl = Engine.tables eng in
        let defaults =
          Array.fold_left
            (fun acc d -> if d >= 0 then acc + 1 else acc)
            0
            (Tables.default_reductions tbl)
        in
        let avg =
          if s.Lalr.n_reductions = 0 then 0.
          else float_of_int s.Lalr.la_total /. float_of_int s.Lalr.n_reductions
        in
        [
          name;
          string_of_int s.Lalr.n_reductions;
          string_of_int s.Lalr.la_total;
          Printf.sprintf "%.2f" avg;
          string_of_int defaults;
          string_of_int ps.Propagation.spontaneous;
          string_of_int ps.Propagation.propagate_edges;
          string_of_int ps.Propagation.passes;
        ])
      (engines ())
  in
  print_table ppf ~title:"T3 — look-ahead set statistics"
    ~header:
      [
        "grammar"; "reductions"; "Σ|LA|"; "avg |LA|"; "default-red states";
        "yacc spont."; "yacc prop. edges"; "yacc passes";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Timing helpers                                                     *)
(* ------------------------------------------------------------------ *)

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  a.(Array.length a / 2)

let time_once f =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (f ()));
  Unix.gettimeofday () -. t0

let time_median ~repeats f =
  median (Array.init repeats (fun _ -> time_once f))

(* The four methods, each timed end-to-end from a prebuilt LR(0)
   automaton (LR(1)-merge builds its own machine — that IS its cost).
   The timed thunks are the raw computations on purpose: the engine
   memoizes around them, never inside them. *)
let method_times_on ~repeats a g =
  let dp = time_median ~repeats (fun () -> Lalr.compute a) in
  let prop = time_median ~repeats (fun () -> Propagation.compute a) in
  let merge =
    time_median ~repeats (fun () ->
        Lr1.merged_lookaheads (Lr1.build g))
  in
  let slr = time_median ~repeats (fun () -> Slr.compute a) in
  (dp, prop, merge, slr)

let method_times ~repeats g = method_times_on ~repeats (Lr0.build g) g

let t4_wallclock ?(repeats = 5) ppf =
  let rows =
    List.map
      (fun (name, eng) ->
        let dp, prop, merge, slr =
          method_times_on ~repeats (Engine.lr0 eng) (Engine.grammar eng)
        in
        [
          name;
          Printf.sprintf "%.3f" (dp *. 1e3);
          Printf.sprintf "%.3f" (prop *. 1e3);
          Printf.sprintf "%.3f" (merge *. 1e3);
          Printf.sprintf "%.3f" (slr *. 1e3);
          Printf.sprintf "%.1fx" (prop /. dp);
          Printf.sprintf "%.1fx" (merge /. dp);
        ])
      (engines ())
  in
  print_table ppf
    ~title:
      (Printf.sprintf
         "T4 — look-ahead computation time (ms, median of %d; from a built \
          LR(0) machine)"
         repeats)
    ~header:
      [
        "grammar"; "DeRemer-Pennello"; "yacc propagation"; "LR(1)+merge";
        "SLR FOLLOW"; "prop/DP"; "merge/DP";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* T5                                                                 *)
(* ------------------------------------------------------------------ *)

let t5 ppf =
  let b v = if v then "yes" else "no" in
  let rows =
    List.map
      (fun (name, eng) ->
        let v = Engine.classification eng in
        [
          name;
          b v.Classify.lr0;
          Printf.sprintf "%s (%d/%d)" (b v.Classify.slr1)
            v.Classify.slr_sr_conflicts v.Classify.slr_rr_conflicts;
          Printf.sprintf "%s (%d/%d)" (b v.Classify.lalr1)
            v.Classify.lalr_sr_conflicts v.Classify.lalr_rr_conflicts;
          Printf.sprintf "%s (%d/%d)" (b v.Classify.nqlalr1)
            v.Classify.nq_sr_conflicts v.Classify.nq_rr_conflicts;
          b v.Classify.lr1;
          string_of_int v.Classify.lr0_states;
          (if v.Classify.lr1_states > 0 then string_of_int v.Classify.lr1_states
           else "-");
        ])
      (engines ())
  in
  print_table ppf
    ~title:"T5 — parser classes and conflicts (s/r / r/r per method)"
    ~header:
      [
        "grammar"; "LR(0)"; "SLR(1)"; "LALR(1)"; "NQLALR"; "LR(1)";
        "LALR states"; "LR(1) states";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* F1                                                                 *)
(* ------------------------------------------------------------------ *)

let f1_series () =
  let series family params =
    List.map
      (fun n ->
        let g = family n in
        let dp, prop, merge, slr = method_times ~repeats:3 g in
        (n, Grammar.symbols_count g, [| dp; prop; merge; slr |]))
      params
  in
  [
    ("expr-levels", series Family.expr_levels [ 2; 4; 8; 16; 32; 64 ]);
    ("statement-lists", series Family.statement_lists [ 2; 4; 8; 16; 32 ]);
    ("nullable-chain", series Family.nullable_chain [ 2; 4; 8; 16; 24 ]);
  ]

(* ------------------------------------------------------------------ *)
(* T6                                                                 *)
(* ------------------------------------------------------------------ *)

let t6 ppf =
  let module Compact = Lalr_tables.Compact in
  let rows =
    List.map
      (fun (name, eng) ->
        let tbl = Engine.tables eng in
        let exact = Compact.stats (Compact.compress tbl) in
        let yacc = Compact.stats (Compact.compress ~mode:Compact.Yacc tbl) in
        [
          name;
          string_of_int exact.Compact.dense_entries;
          string_of_int exact.Compact.packed_entries;
          Printf.sprintf "%.1fx" exact.Compact.compression_ratio;
          string_of_int yacc.Compact.packed_entries;
          string_of_int yacc.Compact.default_states;
          Printf.sprintf "%.1fx" yacc.Compact.compression_ratio;
        ])
      (engines ())
  in
  print_table ppf
    ~title:
      "T6 — ACTION table compression (comb/row-displacement, per \
       DESIGN.md extension)"
    ~header:
      [
        "grammar"; "dense entries"; "exact packed"; "exact ratio";
        "yacc packed"; "yacc defaults"; "yacc ratio";
      ]
    rows

let run_all ppf =
  t1 ppf;
  t2 ppf;
  t3 ppf;
  t4_wallclock ppf;
  t5 ppf;
  t6 ppf

let timings ppf =
  Format.fprintf ppf "@.engine stage timings (per-grammar, cumulative over \
                      all tables run so far)@.";
  List.iter
    (fun (_, eng) -> Format.fprintf ppf "%a@." Engine.pp_stats eng)
    (engines ())
