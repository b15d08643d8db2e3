module Bitset = Lalr_sets.Bitset
module Vec = Lalr_sets.Vec
module Item = Lalr_automaton.Item
module Lr0 = Lalr_automaton.Lr0
module Budget = Lalr_guard.Budget

(* A look-ahead set of an LR(0) state as a function of the kernel
   look-aheads [las] of an LR(1) state over it:
   [spont ∪ ⋃ { las.(i) | i ∈ prop }]. LR(1) closure is linear in the
   look-ahead, so one such flow per set is exact. *)
type flow = { spont : Bitset.t; prop : int array }

(* What one LR(0) state contributes to every LR(1) state over it.
   [targets.(e)] is the e-th out-edge's target and [edge_flows.(e).(j)]
   the flow into kernel item [j] of that target; [reductions] pairs each
   production reduced here (accept excluded, ascending) with its flow. *)
type row = {
  targets : int array;
  edge_flows : flow array array;
  reductions : (int * flow) list;
}

type t = {
  lr0 : Lr0.t;
  rows : row array;
  cores : int array;  (* LR(1) state -> its LR(0) state *)
  las : Bitset.t array array;  (* LR(1) state -> kernel look-aheads *)
}

let grammar t = Lr0.grammar t.lr0
let n_states t = Array.length t.cores
let state_core t s = (Lr0.state t.lr0 t.cores.(s)).kernel

let apply las f =
  let s = Bitset.copy f.spont in
  Array.iter (fun i -> ignore (Bitset.union_into ~into:s las.(i))) f.prop;
  s

(* The look-ahead closure of LR(0) state [p], once. Every closure item
   is a kernel item (flow: its own kernel look-ahead) or an initial item
   [A → . γ], and all initial items of [A] share one flow. For each [A]
   whose initial items are present, FIRST of what follows [A] in an item
   is spontaneous; a kernel item with a nullable tail propagates its
   kernel index; an initial item of [C] with a nullable tail propagates
   [C]'s whole flow, which is solved to fixpoint over the few
   nonterminals of the state. [nt_slot] and [kernel_slot] are scratch
   arrays, all [-1] on entry and on exit. *)
let row_of a ~first_after ~nt_slot ~kernel_slot p =
  let g = Lr0.grammar a and tbl = Lr0.items a in
  let n_term = Grammar.n_terminals g in
  let st = Lr0.state a p in
  let k = Array.length st.kernel in
  Array.iteri (fun i it -> kernel_slot.(it) <- i) st.kernel;
  let nts = Vec.create () in
  Array.iter
    (fun it ->
      match Item.next_symbol tbl it with
      | Some (Symbol.N b) when nt_slot.(b) < 0 -> nt_slot.(b) <- Vec.push nts b
      | Some _ | None -> ())
    st.items;
  let m = Vec.length nts in
  let spont = Array.init m (fun _ -> Bitset.create n_term) in
  let prop = Array.init m (fun _ -> Bitset.create k) in
  let deps = Array.make m [] in
  Array.iter
    (fun it ->
      match Item.next_symbol tbl it with
      | Some (Symbol.N b) ->
          let l = nt_slot.(b) in
          let first, nullable = first_after it in
          ignore (Bitset.union_into ~into:spont.(l) first);
          if nullable then
            if kernel_slot.(it) >= 0 then Bitset.add prop.(l) kernel_slot.(it)
            else
              let c = nt_slot.((Grammar.production g (Item.prod tbl it)).lhs) in
              if c <> l && not (List.mem c deps.(l)) then
                deps.(l) <- c :: deps.(l)
      | Some (Symbol.T _) | None -> ())
    st.items;
  let changed = ref true in
  while !changed do
    changed := false;
    for l = 0 to m - 1 do
      List.iter
        (fun c ->
          if Bitset.union_into ~into:spont.(l) spont.(c) then changed := true;
          if Bitset.union_into ~into:prop.(l) prop.(c) then changed := true)
        deps.(l)
    done
  done;
  let empty = Bitset.create n_term in
  let kernel_flows =
    Array.init k (fun i -> { spont = empty; prop = [| i |] })
  in
  let nt_flows =
    Array.init m (fun l ->
        { spont = spont.(l); prop = Array.of_list (Bitset.elements prop.(l)) })
  in
  let flow_of it =
    if kernel_slot.(it) >= 0 then kernel_flows.(kernel_slot.(it))
    else nt_flows.(nt_slot.((Grammar.production g (Item.prod tbl it)).lhs))
  in
  let edges = Array.of_list (Lr0.transitions a p) in
  let edge_flows =
    Array.map
      (fun (_, q) ->
        Array.map
          (fun it ->
            flow_of
              (Item.encode tbl ~prod:(Item.prod tbl it)
                 ~dot:(Item.dot tbl it - 1)))
          (Lr0.state a q).kernel)
      edges
  in
  let reductions =
    List.map
      (fun pid ->
        let final = Item.encode tbl ~prod:pid ~dot:(Grammar.rhs_length g pid) in
        (pid, flow_of final))
      (Lr0.reductions a p)
  in
  Array.iter (fun it -> kernel_slot.(it) <- -1) st.kernel;
  Vec.iter (fun b -> nt_slot.(b) <- -1) nts;
  { targets = Array.map snd edges; edge_flows; reductions }

module State_tbl = Hashtbl.Make (struct
  type t = int * Bitset.t array

  let equal (q, l) (q', l') = q = q' && Array.for_all2 Bitset.equal l l'
  let hash (q, l) = Array.fold_left (fun h s -> (h * 31) + Bitset.hash s) q l
end)

let of_lr0 ?analysis a =
  Budget.with_stage "lr1" @@ fun () ->
  let g = Lr0.grammar a and tbl = Lr0.items a in
  let analysis =
    match analysis with Some an -> an | None -> Analysis.compute g
  in
  let n_term = Grammar.n_terminals g in
  (* FIRST of what follows the nonterminal after the dot, per item:
     state-independent, so computed once per item. *)
  let first_cache = Array.make (Item.n_items tbl) None in
  let first_after it =
    match first_cache.(it) with
    | Some v -> v
    | None ->
        let v =
          Analysis.first_sentence analysis
            (Grammar.production g (Item.prod tbl it)).rhs
            ~from:(Item.dot tbl it + 1)
        in
        first_cache.(it) <- Some v;
        v
  in
  let nt_slot = Array.make (Grammar.n_nonterminals g) (-1) in
  let kernel_slot = Array.make (Item.n_items tbl) (-1) in
  let rows =
    Array.init (Lr0.n_states a) (fun p ->
        Budget.burn ();
        row_of a ~first_after ~nt_slot ~kernel_slot p)
  in
  let cores = Vec.create () and las = Vec.create () in
  let index = State_tbl.create 1024 in
  let partial () =
    Printf.sprintf "%d canonical LR(1) states constructed" (Vec.length cores)
  in
  let intern q l =
    match State_tbl.find_opt index (q, l) with
    | Some _ -> ()
    | None ->
        Budget.count_state ~partial ();
        State_tbl.replace index (q, l) ();
        ignore (Vec.push cores q);
        ignore (Vec.push las l)
  in
  (* Initial state: [S' → . start $, $]. Its look-ahead is never
     consulted ($ cannot follow the augmented start); $ is conventional. *)
  intern 0 [| Bitset.singleton n_term 0 |];
  let cursor = ref 0 in
  while !cursor < Vec.length cores do
    Budget.burn ();
    let q = Vec.get cores !cursor and l = Vec.get las !cursor in
    Budget.count_items ~partial (Array.length (Lr0.state a q).items);
    let row = rows.(q) in
    Array.iteri
      (fun e target -> intern target (Array.map (apply l) row.edge_flows.(e)))
      row.targets;
    incr cursor
  done;
  { lr0 = a; rows; cores = Vec.to_array cores; las = Vec.to_array las }

let build g = of_lr0 (Lr0.build g)

let reduce_actions t s =
  List.map
    (fun (pid, f) -> (pid, apply t.las.(s) f))
    t.rows.(t.cores.(s)).reductions

let is_lr1 t =
  let n_term = Grammar.n_terminals (grammar t) in
  let ok = ref true in
  for s = 0 to n_states t - 1 do
    let q = t.cores.(s) in
    if t.rows.(q).reductions <> [] then begin
      let seen = Bitset.create n_term in
      Lr0.iter_t_transitions t.lr0 q (fun tt _ -> Bitset.add seen tt);
      List.iter
        (fun (_, set) ->
          if not (Bitset.disjoint set seen) then ok := false;
          ignore (Bitset.union_into ~into:seen set))
        (reduce_actions t s)
    end
  done;
  !ok

(* The core of an LR(1) state is its LR(0) state id: merging needs no
   kernel hashing. *)
let merged_lookaheads t =
  let result : (int * int, Bitset.t) Hashtbl.t = Hashtbl.create 256 in
  for s = 0 to n_states t - 1 do
    let q = t.cores.(s) in
    List.iter
      (fun (pid, set) ->
        match Hashtbl.find_opt result (q, pid) with
        | Some acc -> ignore (Bitset.union_into ~into:acc set)
        | None -> Hashtbl.replace result (q, pid) set)
      (reduce_actions t s)
  done;
  result
