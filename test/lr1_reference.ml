(* The canonical LR(1) builder as it stood before LR(1) was derived
   from the LR(0) automaton: (LR(0) item × terminal) pairs closed in a
   Hashtbl per state, states interned by their sorted packed kernel,
   cores recovered by re-hashing kernels. Frozen here, outside the
   library, as the differential oracle for {!Lalr_baselines.Lr1}: the
   two must agree on state counts, [is_lr1] and the merged look-ahead
   sets. Not for production use. *)

module Grammar = Lalr_grammar.Grammar
module Symbol = Lalr_grammar.Symbol
module Analysis = Lalr_grammar.Analysis
module Bitset = Lalr_sets.Bitset
module Vec = Lalr_sets.Vec
module Item = Lalr_automaton.Item
module Lr0 = Lalr_automaton.Lr0
module Budget = Lalr_guard.Budget

(* An LR(1) item is an LR(0) item paired with one look-ahead terminal,
   packed as [lr0_item * n_terminals + la]. States are identified by
   their sorted kernel. *)

type state = {
  kernel : int array;
  mutable closure : int array;  (* filled during construction *)
}

type t = {
  grammar : Grammar.t;
  items : Item.table;
  n_term : int;
  states : state array;
  transitions : (Symbol.t * int) list array;
}

let grammar t = t.grammar
let n_states t = Array.length t.states
let items t = t.items

let pack ~n_term lr0 la = (lr0 * n_term) + la
let lr0_of ~n_term packed = packed / n_term
let la_of ~n_term packed = packed mod n_term

(* LR(1) closure: for [A → α . B β, a], add [B → . γ, b] for every
   production B → γ and b ∈ FIRST(β a). *)
let closure_of g tbl analysis n_term kernel =
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  let queue = Queue.create () in
  let add item =
    if not (Hashtbl.mem seen item) then begin
      Hashtbl.replace seen item ();
      acc := item :: !acc;
      Queue.add item queue
    end
  in
  Array.iter add kernel;
  while not (Queue.is_empty queue) do
    let packed = Queue.pop queue in
    let lr0 = lr0_of ~n_term packed and la = la_of ~n_term packed in
    match Item.next_symbol tbl lr0 with
    | Some (Symbol.N b) ->
        let prod = Grammar.production g (Item.prod tbl lr0) in
        let dot = Item.dot tbl lr0 in
        let first, nullable =
          Analysis.first_sentence analysis prod.rhs ~from:(dot + 1)
        in
        if nullable then Bitset.add first la;
        Array.iter
          (fun pid ->
            let init = Item.initial tbl ~prod:pid in
            Bitset.iter (fun b_la -> add (pack ~n_term init b_la)) first)
          (Grammar.productions_of g b)
    | Some (Symbol.T _) | None -> ()
  done;
  let arr = Array.of_list !acc in
  Array.sort Int.compare arr;
  arr

module Kernel_tbl = Hashtbl.Make (struct
  type t = int array

  let equal = ( = )
  let hash (k : int array) = Hashtbl.hash k
end)

let build g =
  Budget.with_stage "lr1" @@ fun () ->
  let tbl = Item.make g in
  let analysis = Analysis.compute g in
  let n_term = Grammar.n_terminals g in
  let states : state Vec.t = Vec.create () in
  let trans : (Symbol.t * int) list Vec.t = Vec.create () in
  let index = Kernel_tbl.create 1024 in
  let partial () =
    Printf.sprintf "%d canonical LR(1) states constructed" (Vec.length states)
  in
  let intern kernel =
    match Kernel_tbl.find_opt index kernel with
    | Some id -> id
    | None ->
        Budget.count_state ~partial ();
        let id = Vec.push states { kernel; closure = [||] } in
        ignore (Vec.push trans []);
        Kernel_tbl.replace index kernel id;
        id
  in
  (* Initial kernel: [S' → . start $, $]. The la of this item is never
     consulted ($ cannot follow the augmented start); $ is conventional. *)
  ignore (intern [| pack ~n_term (Item.initial tbl ~prod:0) 0 |]);
  let cursor = ref 0 in
  while !cursor < Vec.length states do
    Budget.burn ();
    let s = Vec.get states !cursor in
    let closure = closure_of g tbl analysis n_term s.kernel in
    Budget.count_items ~partial (Array.length closure);
    s.closure <- closure;
    let groups : (Symbol.t, int list) Hashtbl.t = Hashtbl.create 16 in
    let order = ref [] in
    Array.iter
      (fun packed ->
        let lr0 = lr0_of ~n_term packed in
        match Item.next_symbol tbl lr0 with
        | None -> ()
        | Some sym ->
            let advanced =
              pack ~n_term (Item.advance tbl lr0) (la_of ~n_term packed)
            in
            (match Hashtbl.find_opt groups sym with
            | None ->
                order := sym :: !order;
                Hashtbl.replace groups sym [ advanced ]
            | Some l -> Hashtbl.replace groups sym (advanced :: l)))
      closure;
    let edges =
      List.rev_map
        (fun sym ->
          let kernel = Array.of_list (Hashtbl.find groups sym) in
          Array.sort Int.compare kernel;
          (sym, intern kernel))
        !order
      |> List.sort (fun (a, _) (b, _) -> Symbol.compare a b)
    in
    Vec.set trans !cursor edges;
    incr cursor
  done;
  {
    grammar = g;
    items = tbl;
    n_term;
    states = Vec.to_array states;
    transitions = Vec.to_array trans;
  }

let state_core t i =
  let cores =
    Array.to_list t.states.(i).kernel
    |> List.map (fun packed -> lr0_of ~n_term:t.n_term packed)
    |> List.sort_uniq Int.compare
  in
  Array.of_list cores

let goto t s sym = List.assoc_opt sym t.transitions.(s)

let reduce_actions t s =
  let by_prod = Hashtbl.create 8 in
  let order = ref [] in
  Array.iter
    (fun packed ->
      let lr0 = lr0_of ~n_term:t.n_term packed in
      if Item.is_final t.items lr0 then begin
        let pid = Item.prod t.items lr0 in
        if pid <> 0 then begin
          let set =
            match Hashtbl.find_opt by_prod pid with
            | Some set -> set
            | None ->
                let set = Bitset.create t.n_term in
                Hashtbl.replace by_prod pid set;
                order := pid :: !order;
                set
          in
          Bitset.add set (la_of ~n_term:t.n_term packed)
        end
      end)
    t.states.(s).closure;
  List.sort Int.compare !order
  |> List.map (fun pid -> (pid, Hashtbl.find by_prod pid))

let is_lr1 t =
  let ok = ref true in
  for s = 0 to Array.length t.states - 1 do
    let reds = reduce_actions t s in
    if reds <> [] then begin
      let seen = Bitset.create t.n_term in
      List.iter
        (fun (sym, _) ->
          match sym with
          | Symbol.T tt -> Bitset.add seen tt
          | Symbol.N _ -> ())
        t.transitions.(s);
      List.iter
        (fun (_, set) ->
          if not (Bitset.disjoint set seen) then ok := false;
          ignore (Bitset.union_into ~into:seen set))
        reds
    end
  done;
  !ok

let merged_lookaheads t (lr0 : Lr0.t) =
  if not (Grammar.equal_structure t.grammar (Lr0.grammar lr0)) then
    invalid_arg "Lr1.merged_lookaheads: different grammars";
  (* Identify each LR(1) state's LR(0) core with an LR(0) state id via
     kernels. The Item.table numbering coincides because both are built
     from the same grammar deterministically. *)
  let core_index = Kernel_tbl.create 256 in
  for s = 0 to Lr0.n_states lr0 - 1 do
    Kernel_tbl.replace core_index (Lr0.state lr0 s).kernel s
  done;
  let result : (int * int, Bitset.t) Hashtbl.t = Hashtbl.create 256 in
  for s = 0 to Array.length t.states - 1 do
    let core = state_core t s in
    match Kernel_tbl.find_opt core_index core with
    | None ->
        invalid_arg "Lr1.merged_lookaheads: LR(1) core not an LR(0) state"
    | Some q ->
        List.iter
          (fun (pid, set) ->
            match Hashtbl.find_opt result (q, pid) with
            | Some acc -> ignore (Bitset.union_into ~into:acc set)
            | None -> Hashtbl.replace result (q, pid) (Bitset.copy set))
          (reduce_actions t s)
  done;
  result
