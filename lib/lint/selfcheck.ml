module D = Diagnostic
module Lr0 = Lalr_automaton.Lr0
module Lalr = Lalr_core.Lalr
module Propagation = Lalr_baselines.Propagation
module Lr1 = Lalr_baselines.Lr1
module Bitset = Lalr_sets.Bitset
module Eng = Lalr_engine.Engine

let lr1_limit = Eng.lr1_limit

let set_str g s =
  Format.asprintf "%a"
    (Bitset.pp ~pp_elt:(fun ppf t ->
         Format.pp_print_string ppf (Grammar.terminal_name g t)))
    s

let violation g lalr ~invariant r ~got ~want =
  let q, pid = Lalr.reduction lalr r in
  D.make ~code:"L901" ~severity:D.Error
    ~loc:(Grammar.production_loc g pid)
    ~data:
      [
        ("invariant", D.String invariant);
        ("state", D.Int q);
        ("production", D.Int pid);
      ]
    (Printf.sprintf
       "self-check failed [%s] for LA(%d, %s): computed %s, oracle %s"
       invariant q
       (Format.asprintf "%a" (Grammar.pp_production g)
          (Grammar.production g pid))
       (set_str g got) (set_str g want))

(* The oracle runs against the SAME engine as the lint passes: the
   LR(0) automaton and the relations it audits are the memoized slots,
   not fresh constructions (the engine's miss counters stay at one per
   stage — asserted in the test suite). Only the oracle-specific
   artifacts (propagation, canonical LR(1)) are forced here, and they
   too land in engine slots, shared with any later consumer. *)
let run (ctx : Context.t) =
  match Context.engine ctx with
  | Some eng ->
      let a = Eng.lr0 eng in
      let lalr = Eng.lalr eng in
      let g = Lr0.grammar a in
      let analysis = Lalr.analysis lalr in
      let n_red = Lalr.n_reductions lalr in
      let bad = ref [] in
      (* 1. SLR bound: LA ⊆ FOLLOW(lhs). *)
      for r = 0 to n_red - 1 do
        let _, pid = Lalr.reduction lalr r in
        let lhs = (Grammar.production g pid).Grammar.lhs in
        let follow = Analysis.follow analysis lhs in
        let la = Lalr.la lalr r in
        if not (Bitset.subset la follow) then
          bad :=
            violation g lalr ~invariant:"LA ⊆ SLR FOLLOW" r ~got:la
              ~want:follow
            :: !bad
      done;
      (* 2. Agreement with yacc-style propagation. *)
      let prop = Eng.propagation eng in
      for r = 0 to n_red - 1 do
        let q, pid = Lalr.reduction lalr r in
        let oracle = Propagation.lookahead prop ~state:q ~prod:pid in
        let la = Lalr.la lalr r in
        if not (Bitset.equal la oracle) then
          bad :=
            violation g lalr ~invariant:"DP = propagation" r ~got:la
              ~want:oracle
            :: !bad
      done;
      (* 3. Agreement with canonical LR(1) merged by core. *)
      let lr1_ran =
        if Grammar.n_productions g > lr1_limit then false
        else begin
          let merged = Lr1.merged_lookaheads (Eng.lr1 eng) in
          for r = 0 to n_red - 1 do
            let q, pid = Lalr.reduction lalr r in
            let oracle = Hashtbl.find merged (q, pid) in
            let la = Lalr.la lalr r in
            if not (Bitset.equal la oracle) then
              bad :=
                violation g lalr ~invariant:"DP = LR(1) merge" r ~got:la
                  ~want:oracle
                :: !bad
          done;
          true
        end
      in
      if !bad <> [] then List.rev !bad
      else
        [
          D.make ~code:"L900" ~severity:D.Info
            ~loc:{ Grammar.file = Grammar.source g; line = 0 }
            ~data:
              [
                ("reductions", D.Int n_red);
                ("lr1_checked", D.Bool lr1_ran);
              ]
            (Printf.sprintf
               "self-check passed: LA ⊆ SLR FOLLOW and DP = propagation%s \
                over %d reductions"
               (if lr1_ran then " = LR(1) merge" else "")
               n_red);
        ]
  | None -> []

let pass =
  {
    Passes.name = "selfcheck";
    codes = [ "L900"; "L901" ];
    doc = "oracle: audit the core look-ahead computation on this grammar";
    run;
  }
