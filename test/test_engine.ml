(* The query engine is a memoization layer, nothing more: every
   artifact it serves must be the one the underlying module computes
   directly, each pipeline stage must be computed at most once per
   engine, and the consumers that were ported onto it (experiments,
   the tables CLI, lint) must produce byte-identical output. *)

module Bitset = Lalr_sets.Bitset
module G = Lalr_grammar.Grammar
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify
module Engine = Lalr_engine.Engine
module Registry = Lalr_suite.Registry
module Randgen = Lalr_suite.Randgen
module E = Lalr_bench_tables.Experiments
module Lint = Lalr_lint.Engine
module Context = Lalr_lint.Context

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let grammar_of name = Lazy.force (Registry.find name).Registry.grammar

let render f =
  let buf = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let read_file path =
  (* cwd is test/ under [dune runtest], the project root under
     [dune exec test/test_engine.exe]. *)
  let path = if Sys.file_exists path then path else "test/" ^ path in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Engine artifacts = direct per-module computation                   *)
(* ------------------------------------------------------------------ *)

(* Engine-mediated LA sets, tables and classification vs computing
   each from scratch; returns an error description or None. *)
let engine_vs_direct ?(with_lr1 = true) g =
  let e = Engine.create g in
  let a = Lr0.build g in
  let t = Lalr.compute a in
  let et = Engine.lalr e in
  let err = ref None in
  let fail what = if !err = None then err := Some what in
  if Lalr.n_reductions t <> Lalr.n_reductions et then
    fail "reduction counts differ";
  for r = 0 to min (Lalr.n_reductions t) (Lalr.n_reductions et) - 1 do
    if Lalr.reduction t r <> Lalr.reduction et r then
      fail (Printf.sprintf "reduction %d pair differs" r);
    if not (Bitset.equal (Lalr.la t r) (Lalr.la et r)) then
      fail (Printf.sprintf "LA set %d differs" r)
  done;
  let direct_tbl = Tables.build ~lookahead:(Lalr.lookahead t) a in
  let pp_tbl tbl = render (fun ppf -> Tables.pp ppf tbl) in
  if pp_tbl direct_tbl <> pp_tbl (Engine.tables e) then fail "tables differ";
  let direct_v =
    if with_lr1 then Classify.classify g else Classify.classify_no_lr1 g
  in
  if direct_v <> Engine.classification ~with_lr1 e then
    fail "classification differs";
  !err

let test_engine_vs_direct_suite () =
  List.iter
    (fun (e : Registry.entry) ->
      let g = Lazy.force e.grammar in
      let with_lr1 = G.n_productions g <= 200 in
      match engine_vs_direct ~with_lr1 g with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s" e.name msg)
    Registry.all

let prop_engine_vs_direct_random =
  QCheck.Test.make ~name:"engine = direct computation (random grammars)"
    ~count:100 (Randgen.arbitrary ()) (fun g -> engine_vs_direct g = None)

(* ------------------------------------------------------------------ *)
(* Force-once slot discipline                                         *)
(* ------------------------------------------------------------------ *)

let test_la_forces_relations_once () =
  let e = Engine.create (grammar_of "expr") in
  check "relations starts unforced" false
    (Engine.find_stage e "relations").Engine.forced;
  check "la starts unforced" false (Engine.find_stage e "la").Engine.forced;
  ignore (Engine.lalr e);
  check_int "forcing la computes relations once" 1
    (Engine.find_stage e "relations").Engine.misses;
  check_int "and lr0 once" 1 (Engine.find_stage e "lr0").Engine.misses;
  check_int "and follow once" 1 (Engine.find_stage e "follow").Engine.misses;
  ignore (Engine.lalr e);
  ignore (Engine.lalr e);
  check_int "relations never recomputed" 1
    (Engine.find_stage e "relations").Engine.misses;
  check_int "la computed once" 1 (Engine.find_stage e "la").Engine.misses;
  check "repeat queries are hits" true
    ((Engine.find_stage e "la").Engine.hits >= 2);
  (* Unrelated slots stay unforced: demand-driven, not eager. *)
  check "lr1 untouched" false (Engine.find_stage e "lr1").Engine.forced

let test_seeded_analysis () =
  let g = grammar_of "expr" in
  let analysis = Lalr_grammar.Analysis.compute g in
  let e = Engine.create ~analysis g in
  let st = Engine.find_stage e "analysis" in
  check "seeded slot is forced" true st.Engine.forced;
  check_int "with zero misses" 0 st.Engine.misses;
  check "seeded value is returned" true (Engine.analysis e == analysis)

let test_find_stage_not_found () =
  let e = Engine.create (grammar_of "expr") in
  match Engine.find_stage e "no-such-stage" with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "expected Not_found"

let test_stats_wall_sums () =
  let e = Engine.create (grammar_of "mini-pascal") in
  ignore (Engine.tables e);
  let sum =
    List.fold_left
      (fun acc (st : Engine.stage) -> acc +. st.Engine.wall)
      0. (Engine.stats e)
  in
  check "per-stage walls sum to the total" true
    (Float.abs (sum -. Engine.total_wall e) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Lint self-check rides the same pipeline                            *)
(* ------------------------------------------------------------------ *)

let test_lint_selfcheck_shares_engine () =
  let ctx = Context.of_grammar (grammar_of "mini-c") in
  let config = { Lint.default_config with Lint.self_check = true } in
  let diags = Lint.run_ctx ~config ctx in
  check "self-check emitted findings" true
    (List.exists (fun (d : Lalr_lint.Diagnostic.t) -> d.code = "L900") diags);
  match Context.engine ctx with
  | None -> Alcotest.fail "mini-c must have an engine"
  | Some eng ->
      (* The oracle (L900/L901) and the regular passes both walked the
         pipeline; the counters prove nothing was built twice. *)
      check_int "LR(0) automaton built exactly once" 1
        (Engine.find_stage eng "lr0").Engine.misses;
      check_int "reads/includes relations built exactly once" 1
        (Engine.find_stage eng "relations").Engine.misses;
      check_int "LA sets solved exactly once" 1
        (Engine.find_stage eng "la").Engine.misses;
      check "the automaton was actually shared (hits > 0)" true
        ((Engine.find_stage eng "lr0").Engine.hits > 0)

(* ------------------------------------------------------------------ *)
(* Byte-identity with the pre-engine pipeline (golden files)          *)
(* ------------------------------------------------------------------ *)

let test_golden_experiments_t2 () =
  Alcotest.(check string)
    "experiments t2 unchanged"
    (read_file "golden/experiments_t2.txt")
    (render E.t2)

let golden_tables name file () =
  let e = Engine.create (grammar_of name) in
  Alcotest.(check string)
    (name ^ " tables unchanged") (read_file ("golden/" ^ file))
    (render (fun ppf -> Format.fprintf ppf "%a@." Tables.pp (Engine.tables e)))

let test_golden_lint_mini_c () =
  let ctx = Context.of_grammar (grammar_of "mini-c") in
  let config = { Lint.default_config with Lint.self_check = true } in
  let diags = Lint.run_ctx ~config ctx in
  Alcotest.(check string)
    "lint --self-check report unchanged"
    (read_file "golden/lint_mini_c.txt")
    (render (fun ppf -> Lint.pp_report ppf diags))

(* ------------------------------------------------------------------ *)
(* The failure boundary                                               *)
(* ------------------------------------------------------------------ *)

module Budget = Lalr_guard.Budget

let test_budget_trips_named_stage () =
  let e =
    Engine.create ~budget:(Budget.create ~fuel:10 ()) (grammar_of "expr")
  in
  (match Engine.run e Engine.tables with
  | Ok _ -> Alcotest.fail "10 fuel must not build the expr tables"
  | Error (Engine.Budget_exceeded ex) ->
      check "fuel resource" true (ex.Budget.ex_resource = Budget.Fuel);
      Alcotest.(check string) "innermost stage" "lr0" ex.Budget.ex_stage
  | Error f ->
      Alcotest.failf "expected Budget_exceeded, got %a" Engine.pp_failure f);
  (* The interrupted slot is not poisoned: a fresh unbudgeted engine
     over the same grammar — and this engine's accessor reports the
     budget it carries. *)
  check "budget accessor" true (Engine.budget e <> None)

(* CI's budget acceptance run trips in nqlalr before lr1 ever runs, so
   the LR(1) unfolding's own check points are pinned here: forcing lr1
   forces lr0 first, and states are counted across the whole pipeline,
   so with a cap just above the LR(0) count lr1 must be the stage that
   trips, with its partial artifact named. *)
let test_budget_trips_in_lr1 () =
  let g = grammar_of "mini-pascal" in
  let n_lr0 = Lr0.n_states (Lr0.build g) in
  let e =
    Engine.create ~budget:(Budget.create ~max_states:(n_lr0 + 10) ()) g
  in
  match Engine.run e Engine.lr1 with
  | Ok _ -> Alcotest.fail "canonical LR(1) cannot fit in LR(0) + 10 states"
  | Error (Engine.Budget_exceeded ex) ->
      Alcotest.(check string) "stage" "lr1" ex.Budget.ex_stage;
      check "states resource" true (ex.Budget.ex_resource = Budget.States);
      Alcotest.(check (option string))
        "partial" (Some "10 canonical LR(1) states constructed")
        ex.Budget.ex_partial
  | Error f ->
      Alcotest.failf "expected Budget_exceeded, got %a" Engine.pp_failure f

let test_unbudgeted_engine_unchanged () =
  let e = Engine.create (grammar_of "expr") in
  check "no budget" true (Engine.budget e = None);
  match Engine.run e Engine.tables with
  | Ok tbl ->
      let direct =
        let g = grammar_of "expr" in
        let a = Lr0.build g in
        Tables.build ~lookahead:(Lalr.lookahead (Lalr.compute a)) a
      in
      check "same states as direct" true
        (Lr0.n_states (Tables.automaton tbl)
        = Lr0.n_states (Tables.automaton direct))
  | Error f -> Alcotest.failf "unbudgeted failure: %a" Engine.pp_failure f

let test_failure_rendering () =
  let e =
    Engine.create ~budget:(Budget.create ~fuel:5 ()) (grammar_of "expr")
  in
  match Engine.run e Engine.lr0 with
  | Error (Engine.Budget_exceeded _ as f) ->
      let s = render (fun ppf -> Engine.pp_failure ppf f) in
      check "report names the resource" true
        (String.length s > 0
        && (let has needle =
              let n = String.length needle and m = String.length s in
              let rec go i = i + n <= m
                && (String.sub s i n = needle || go (i + 1)) in
              go 0
            in
            has "fuel" && has "lr0"))
  | _ -> Alcotest.fail "expected a budget failure"

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let () =
  Alcotest.run "engine"
    [
      ( "equivalence",
        [
          Alcotest.test_case "engine = direct on the whole suite" `Slow
            test_engine_vs_direct_suite;
        ] );
      qsuite "equivalence-props" [ prop_engine_vs_direct_random ];
      ( "slots",
        [
          Alcotest.test_case "la forces relations exactly once" `Quick
            test_la_forces_relations_once;
          Alcotest.test_case "seeded analysis slot" `Quick test_seeded_analysis;
          Alcotest.test_case "budget trips with stage" `Quick
            test_budget_trips_named_stage;
          Alcotest.test_case "budget trips in lr1" `Quick
            test_budget_trips_in_lr1;
          Alcotest.test_case "unbudgeted unchanged" `Quick
            test_unbudgeted_engine_unchanged;
          Alcotest.test_case "failure renders" `Quick test_failure_rendering;
          Alcotest.test_case "find_stage Not_found" `Quick
            test_find_stage_not_found;
          Alcotest.test_case "stage walls sum to total" `Quick
            test_stats_wall_sums;
        ] );
      ( "lint",
        [
          Alcotest.test_case "self-check shares the lint engine" `Quick
            test_lint_selfcheck_shares_engine;
        ] );
      ( "golden",
        [
          Alcotest.test_case "experiments t2" `Quick test_golden_experiments_t2;
          Alcotest.test_case "tables mini-c" `Quick
            (golden_tables "mini-c" "tables_mini_c.txt");
          Alcotest.test_case "tables expr" `Quick
            (golden_tables "expr" "tables_expr.txt");
          Alcotest.test_case "lint mini-c self-check" `Quick
            test_golden_lint_mini_c;
        ] );
    ]
