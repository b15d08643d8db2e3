(* The lalrgen benchmark: one closed-loop workload per run, every
   output checked against a reference, every end-to-end metric printed
   by name and unit, and the last stdout line one JSON result.

     perfbench.exe --workload verdict|conflicts|generate|serve
       --seed N --seconds S --trace 0|1 [--lalrgen PATH] [--dir DIR]

   With --trace 0 the result carries the end-to-end metrics; with
   --trace 1 the run alternates traced and untraced rounds and the
   result carries the per-layer metrics (self time and allocation per
   layer, taken from the spans recorded around each layer call) and
   the tracing overhead. README.md beside this file describes the
   workloads and metrics. *)

module Engine = Lalr_engine.Engine
module Tables = Lalr_tables.Tables
module Classify = Lalr_tables.Classify
module Registry = Lalr_suite.Registry
module Scaled = Lalr_suite.Scaled
module Codegen = Lalr_report.Codegen
module Describe = Lalr_report.Describe
module Driver = Lalr_runtime.Driver
module Sentence = Lalr_runtime.Sentence
module Store = Lalr_store.Store
module Protocol = Lalr_serve.Protocol
module Client = Lalr_serve.Client
module Serve = Lalr_serve.Serve
module Metrics = Lalr_trace.Metrics
module Json = Protocol.Json

let now = Span.now


(* Set-up is repeated this many times per run and its median reported,
   so a single slow repetition (the first, which also grows the heap and
   forces the registry's lazy grammars) does not move [setup_s]. *)
let setup_reps = 5

type config = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  lalrgen : string;
  dir : string;
}

(* ------------------------------------------------------------------ *)
(* Results                                                            *)
(* ------------------------------------------------------------------ *)

let end_to_end_units =
  [
    ("setup_s", "s"); ("ok_ratio", "ratio"); ("ops_per_s", "1/s");
    ("op_ms", "ms"); ("p50_ms", "ms"); ("p99_ms", "ms");
    ("peak_heap_mb", "MB"); ("out_kb", "kB");
  ]

let per_layer_units =
  [
    ("grammar.read_ms", "ms"); ("grammar.analysis_ms", "ms");
    ("automaton.lr0_ms", "ms"); ("automaton.lr0_mw", "Mw");
    ("automaton.lr0_states", "count"); ("core.relations_ms", "ms");
    ("core.follow_ms", "ms"); ("core.la_ms", "ms"); ("core.mw", "Mw");
    ("baselines.lr1_ms", "ms"); ("baselines.lr1_mw", "Mw");
    ("baselines.lr1_states", "count"); ("baselines.propagation_ms", "ms");
    ("baselines.nqlalr_ms", "ms"); ("baselines.slr_ms", "ms");
    ("tables.tables_ms", "ms"); ("tables.classify_ms", "ms");
    ("tables.mw", "Mw"); ("report.codegen_ms", "ms");
    ("report.codegen_mw", "Mw"); ("report.codegen_kb", "kB");
    ("runtime.parse_ms", "ms"); ("store.load_ms", "ms");
    ("store.save_ms", "ms"); ("store.hit_ratio", "ratio");
    ("serve.decode_us", "us"); ("serve.rtt_small_ms", "ms");
    ("serve.queue_wait_ms", "ms"); ("serve.compute_ms", "ms");
    ("trace.overhead", "x");
  ]

type result = {
  attempted : int;
  failed : int;
  repeat_ok : bool;  (** every deterministic count repeated exactly *)
  metrics : (string * float) list;
  notes : string list;  (** human-readable lines printed before the JSON *)
}

(* Prints every metric of the selected set by name and unit, then the
   one-line JSON result. A metric the workload does not exercise reads
   0 (per-layer only: a layer the workload never calls). A metric with
   no samples behind it (NaN) makes the result incorrect. *)
let print_result cfg r =
  let units = if cfg.trace then per_layer_units else end_to_end_units in
  let value name = Option.value (List.assoc_opt name r.metrics) ~default:0. in
  List.iter print_endline r.notes;
  List.iter
    (fun (name, unit) -> Printf.printf "%-26s %16.6f %s\n" name (value name) unit)
    units;
  let unmeasured =
    List.filter (fun (name, _) -> not (Float.is_finite (value name))) units
  in
  List.iter
    (fun (name, _) -> Printf.eprintf "perfbench: %s has no samples\n%!" name)
    unmeasured;
  let correct =
    r.failed = 0 && r.repeat_ok && r.attempted > 0 && unmeasured = []
  in
  let fields =
    List.map
      (fun (name, unit) ->
        let v = value name in
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name
          (if Float.is_finite v then Printf.sprintf "%.17g" v else "0")
          unit)
      units
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct (max 1 r.attempted) r.failed
    (String.concat ", " fields)

(* ------------------------------------------------------------------ *)
(* Exact-repeat check                                                 *)
(* ------------------------------------------------------------------ *)

(* The built code: a digest of this executable (which links every
   lalrgen library it measures) and of the daemon binary. *)
let code_digest cfg =
  let file path = try Digest.file path with Sys_error _ -> "" in
  String.sub
    (Digest.to_hex (Digest.string (file Sys.executable_name ^ file cfg.lalrgen)))
    0 12

(* Deterministic counts (allocation per op and per stage, state counts,
   generated-code size and digest, peak heap) must repeat exactly: the
   same seed run twice on the same build must agree, and so must every
   op of one input within a run. The first run of a seed on a build
   records its counts; later runs of that build compare against them and
   fail loudly. The record is keyed by [code_digest], so a change to the
   program that moves a count starts a fresh record instead of failing. *)
let repeat_check cfg counts =
  let path =
    Filename.concat cfg.dir
      (Printf.sprintf "counts-%s-s%d-t%d-%s.txt" cfg.workload cfg.seed
         (if cfg.trace then 1 else 0) (code_digest cfg))
  in
  if Sys.file_exists path then begin
    let recorded = Hashtbl.create 64 in
    In_channel.with_open_text path (fun ic ->
        List.iter
          (fun line ->
            match String.index_opt line ' ' with
            | Some i ->
                Hashtbl.replace recorded (String.sub line 0 i)
                  (String.sub line (i + 1) (String.length line - i - 1))
            | None -> ())
          (In_channel.input_lines ic));
    List.fold_left
      (fun ok (k, v) ->
        match Hashtbl.find_opt recorded k with
        | Some v' when v' <> v ->
            Printf.eprintf
              "perfbench: EXACT-REPEAT FAILURE: %s is %s, an earlier run of \
               seed %d on this build recorded %s (%s)\n%!"
              k v cfg.seed v' path;
            false
        | Some _ | None -> ok)
      true counts
  end
  else begin
    Out_channel.with_open_text path (fun oc ->
        List.iter (fun (k, v) -> Printf.fprintf oc "%s %s\n" k v) counts);
    true
  end

(* ------------------------------------------------------------------ *)
(* Inputs                                                             *)
(* ------------------------------------------------------------------ *)

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Scaled seeds drawn from the workload seed: distinct, positive. *)
let scaled_seeds rng k =
  List.init k (fun i -> (Random.State.bits rng lsl 4) lor i)

let language_names =
  [ "json"; "mini-pascal"; "mini-c"; "modula2"; "ada-subset"; "algol60" ]

let registry name = Registry.find name

(* The core count as the OS reports it, recorded with every run. *)
let nproc () =
  match
    let ic = Unix.open_process_in "nproc 2>/dev/null" in
    let line = In_channel.input_line ic in
    ignore (Unix.close_process_in ic);
    Option.bind line (fun l -> int_of_string_opt (String.trim l))
  with
  | Some k when k > 0 -> k
  | Some _ | None -> Domain.recommended_domain_count ()
  | exception (Unix.Unix_error _ | Sys_error _) ->
      Domain.recommended_domain_count ()

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. 1e6

(* ------------------------------------------------------------------ *)
(* In-process workloads                                               *)
(* ------------------------------------------------------------------ *)

type outcome = {
  ok : bool;
  out_bytes : int;
  counts : (string * string) list;  (** deterministic per input *)
}

type job = { label : string; run : traced:bool -> op:int -> outcome }

let sp ~traced ~op name f = Span.with_ ~enabled:traced name ~op f

(* The engine stages every in-process op runs, each forced through its
   public slot accessor in pipeline order, so a span's time is that
   slot's own work (its dependencies are already forced). *)
let lalr_tables ~traced ~op g =
  let sp name f = sp ~traced ~op name f in
  let e = Engine.create g in
  sp "grammar.analysis" (fun () -> ignore (Engine.analysis e));
  sp "automaton.lr0" (fun () -> ignore (Engine.lr0 e));
  sp "core.relations" (fun () -> ignore (Engine.relations e));
  sp "core.follow" (fun () -> ignore (Engine.follow e));
  sp "core.la" (fun () -> ignore (Engine.lalr e));
  let tbl = sp "tables.tables" (fun () -> Engine.tables e) in
  (e, tbl)

let read ~traced ~op name text =
  sp ~traced ~op "grammar.read" (fun () -> Reader.of_string ~name text)

(* verdict: [lalrgen classify] — read, then the full hierarchy verdict
   with canonical LR(1) on a fresh engine, checked against the
   registry's frozen expectation. The propagation baseline is forced
   too: it is the precompute an LR(1) rebuilt from LR(0) would share. *)
let verdict_job name =
  let entry = registry name in
  let text = Reader.to_string (Lazy.force entry.Registry.grammar) in
  let run ~traced ~op =
    let sp name f = sp ~traced ~op name f in
    let g = read ~traced ~op name text in
    let e, _ = lalr_tables ~traced ~op g in
    sp "baselines.slr" (fun () -> ignore (Engine.slr e));
    sp "baselines.nqlalr" (fun () -> ignore (Engine.nqlalr e));
    sp "baselines.propagation" (fun () -> ignore (Engine.propagation e));
    sp "baselines.lr1" (fun () -> ignore (Engine.lr1 e));
    let v =
      sp "tables.classify" (fun () -> Engine.classification ~with_lr1:true e)
    in
    let x = entry.Registry.expected in
    let ok =
      v.Classify.lr0 = x.Registry.lr0
      && v.slr1 = x.slr1 && v.lalr1 = x.lalr1 && v.lr1 = x.lr1
      && v.lalr_sr_conflicts = x.lalr_sr
      && v.lalr_rr_conflicts = x.lalr_rr
      && v.not_lr_k = x.not_lr_k
      && v.lr1_states = Lalr_baselines.Lr1.n_states (Engine.lr1 e)
    in
    let out = Format.asprintf "%a@." Classify.pp v in
    {
      ok;
      out_bytes = String.length out;
      counts =
        [
          ("lr0_states", string_of_int v.lr0_states);
          ("lr1_states", string_of_int v.lr1_states);
        ];
    }
  in
  { label = name; run }

(* Scaled grammars travel as text, as a user's grammar file would. *)
let scaled_text ~seed ~units =
  Reader.to_string (Scaled.grammar ~seed ~units ())

(* conflicts: [lalrgen conflicts] — read, LALR(1) tables, the conflict
   report; Scaled grammars are conflict-free by construction. *)
let conflicts_job (seed, units) =
  let label = Printf.sprintf "scaled-%x-%d" seed units in
  let text = scaled_text ~seed ~units in
  let run ~traced ~op =
    let g = read ~traced ~op label text in
    let e, tbl = lalr_tables ~traced ~op g in
    let out = Format.asprintf "%a@." Describe.conflicts tbl in
    {
      ok = Tables.unresolved_conflicts tbl = [];
      out_bytes = String.length out;
      counts =
        [
          ( "lr0_states",
            string_of_int (Option.value (Engine.peek_lr0_states e) ~default:0)
          );
        ];
    }
  in
  { label; run }

let sentences_per_op = 20

(* generate: [lalrgen generate] — read, LALR(1) tables, the standalone
   parser source, then the runtime driver over seeded sentences of the
   grammar. Every sentence must parse and the source must be
   byte-identical on every op. *)
let generate_job rng (label, text) =
  let sentences =
    let prep = Sentence.prepare (Reader.of_string ~name:label text) in
    List.init sentences_per_op (fun _ -> Sentence.generate ~max_depth:8 prep rng)
  in
  let run ~traced ~op =
    let sp name f = sp ~traced ~op name f in
    let g = read ~traced ~op label text in
    let e, tbl = lalr_tables ~traced ~op g in
    let src = sp "report.codegen" (fun () -> Codegen.emit_to_string tbl) in
    let parsed =
      sp "runtime.parse" (fun () ->
          List.for_all
            (fun s -> Result.is_ok (Driver.parse tbl s))
            sentences)
    in
    {
      ok = parsed;
      out_bytes = String.length src;
      counts =
        [
          ( "lr0_states",
            string_of_int (Option.value (Engine.peek_lr0_states e) ~default:0)
          );
          ("codegen_bytes", string_of_int (String.length src));
          ("codegen_md5", Digest.to_hex (Digest.string src));
        ];
    }
  in
  { label; run }

(* Per-layer metric → the spans whose self time (or allocation) it sums. *)
let time_layers =
  [
    ("grammar.read_ms", [ "grammar.read" ]);
    ("grammar.analysis_ms", [ "grammar.analysis" ]);
    ("automaton.lr0_ms", [ "automaton.lr0" ]);
    ("core.relations_ms", [ "core.relations" ]);
    ("core.follow_ms", [ "core.follow" ]);
    ("core.la_ms", [ "core.la" ]);
    ("baselines.lr1_ms", [ "baselines.lr1" ]);
    ("baselines.propagation_ms", [ "baselines.propagation" ]);
    ("baselines.nqlalr_ms", [ "baselines.nqlalr" ]);
    ("baselines.slr_ms", [ "baselines.slr" ]);
    ("tables.tables_ms", [ "tables.tables" ]);
    ("tables.classify_ms", [ "tables.classify" ]);
    ("report.codegen_ms", [ "report.codegen" ]);
    ("runtime.parse_ms", [ "runtime.parse" ]);
  ]

let alloc_layers =
  [
    ("automaton.lr0_mw", [ "automaton.lr0" ]);
    ("core.mw", [ "core.relations"; "core.follow"; "core.la" ]);
    ("baselines.lr1_mw", [ "baselines.lr1" ]);
    ("tables.mw", [ "tables.tables"; "tables.classify" ]);
    ("report.codegen_mw", [ "report.codegen" ]);
  ]

(* The share of traced op time each layer's spans account for, the
   rest being the op's own glue (engine creation, checks). *)
let layer_shares metrics op_total =
  let groups =
    [ "grammar"; "automaton"; "core"; "baselines"; "tables"; "report"; "runtime" ]
  in
  List.map
    (fun grp ->
      let ms =
        List.fold_left
          (fun acc (m, _) ->
            if String.starts_with ~prefix:(grp ^ ".") m then
              acc +. Option.value (List.assoc_opt m metrics) ~default:0.
            else acc)
          0. time_layers
      in
      Printf.sprintf "%s %.1f%%" grp (100. *. ms /. op_total))
    groups

type sample = {
  s_input : int;
  s_op : int;
  s_ms : float;  (** wall time as measured *)
  s_factor : float;  (** the host-speed factor of its round *)
  s_traced : bool;
}

(* A time at the nominal host speed. *)
let scaled s = s.s_ms *. s.s_factor

(* Five kernel timings taken now. *)
let kernel_samples () = List.init 5 (fun _ -> Host.sample ())

(* Host-speed factor from five kernel timings taken now. *)
let host_factor () = Host.factor (kernel_samples ())

(* [f ()] and its time at the nominal host speed, with the kernel timed
   just before and just after it. *)
let timed_setup f =
  let before = kernel_samples () in
  let t0 = now () in
  let r = f () in
  let t = now () -. t0 in
  (r, t *. Host.factor (before @ kernel_samples ()))

let run_inprocess cfg ~make_jobs =
  let rng = Random.State.make [| cfg.seed |] in
  if cfg.trace then Span.arm (1 lsl 16);
  (* Set-up: build the inputs from the seed and run one warm-up op per
     input (lazy registry grammars, first-touch allocation), repeated
     and the median kept. Every repetition draws the same inputs. Each
     warm-up op starts from a collected heap, as in a fresh process, so
     the peak heap after set-up is the largest one op needs. *)
  let jobs = ref [||] in
  let setup_times =
    List.init setup_reps (fun _ ->
        let js, t =
          timed_setup (fun () ->
              let js = make_jobs (Random.State.copy rng) in
              Array.iter
                (fun j -> Gc.full_major (); ignore (j.run ~traced:false ~op:0))
                js;
              js)
        in
        jobs := js;
        t)
  in
  let jobs = !jobs in
  let peak_heap_mb = top_heap_mb () in
  let n = Array.length jobs in
  let order_rng = Random.State.make [| cfg.seed; 1 |] in
  (* Deterministic counts: the first op of each input (per mode)
     records them, every later op must agree. *)
  let first = Hashtbl.create 16 in
  let repeat_ok = ref true in
  let check_repeat key v =
    match Hashtbl.find_opt first key with
    | None -> Hashtbl.replace first key v
    | Some v' when v' = v -> ()
    | Some v' ->
        repeat_ok := false;
        Printf.eprintf
          "perfbench: EXACT-REPEAT FAILURE within the run: %s was %s, now %s\n%!"
          key v' v
  in
  let samples = ref [] and attempted = ref 0 and failed = ref 0 in
  let out_bytes = Array.make n 0 in
  let op = ref 0 and round = ref 0 in
  (* Loop time spent in ops, raw and scaled; the kernel is timed after
     every round and scales that round's ops. *)
  let busy = ref 0. and busy_scaled = ref 0. in
  let t_start = now () in
  while now () -. t_start < cfg.seconds do
    let traced = cfg.trace && !round mod 2 = 1 in
    let round_start = now () and round_samples = ref [] in
    Array.iter
      (fun i ->
        incr op;
        incr attempted;
        if traced then Span.reserve 64;
        let t0 = now () in
        let o =
          try
            Span.with_ ~enabled:traced "op" ~op:!op (fun () ->
                jobs.(i).run ~traced ~op:!op)
          with e ->
            Printf.eprintf "perfbench: %s raised %s\n%!" jobs.(i).label
              (Printexc.to_string e);
            { ok = false; out_bytes = 0; counts = [] }
        in
        let t1 = now () in
        if not o.ok then begin
          incr failed;
          Printf.eprintf "perfbench: %s: output differs from the reference\n%!"
            jobs.(i).label
        end;
        out_bytes.(i) <- o.out_bytes;
        List.iter
          (fun (k, v) -> check_repeat (k ^ "." ^ jobs.(i).label) v)
          o.counts;
        round_samples := (i, !op, (t1 -. t0) *. 1e3) :: !round_samples)
      (shuffle order_rng (Array.init n Fun.id));
    let round_time = now () -. round_start in
    let f = host_factor () in
    busy := !busy +. round_time;
    busy_scaled := !busy_scaled +. (round_time *. f);
    List.iter
      (fun (i, o, ms) ->
        samples :=
          { s_input = i; s_op = o; s_ms = ms; s_factor = f; s_traced = traced }
          :: !samples)
      !round_samples;
    incr round
  done;
  let elapsed = now () -. t_start in
  let samples = List.rev !samples in
  let peak_after_run = top_heap_mb () in
  let per_input ?(time = scaled) traced f =
    List.init n (fun i ->
        f
          (List.filter_map
             (fun s ->
               if s.s_input = i && s.s_traced = traced then Some (time s)
               else None)
             samples))
  in
  let op_ms traced = Stat.geomean (per_input traced Stat.median) in
  let ops_per_input = List.length samples / max 1 n in
  let raw s = s.s_ms in
  let notes =
    [
      Printf.sprintf
        "workload %s, seed %d, cores %d, %d inputs, %d ops (%d per input), %.2f s"
        cfg.workload cfg.seed (nproc ()) n !attempted ops_per_input elapsed;
      Printf.sprintf "heap: %.3f MB peak after set-up, %.3f MB after the loop"
        peak_heap_mb peak_after_run;
      Printf.sprintf
        "host: factor %.3f (busy %.2f s, %.2f s scaled); op_ms as measured %.3f"
        (!busy_scaled /. !busy) !busy !busy_scaled
        (Stat.geomean (per_input ~time:raw false Stat.median));
      "per input (untraced ops; medians as measured, then scaled):";
    ]
    @ List.init n (fun i ->
          let ss =
            List.filter (fun s -> s.s_input = i && not s.s_traced) samples
          in
          let xs = List.map raw ss and ys = List.map scaled ss in
          Printf.sprintf "  %-24s %4d samples  median %9.3f  scaled %9.3f  p99 %9.3f ms"
            jobs.(i).label (List.length xs) (Stat.median xs) (Stat.median ys)
            (Stat.quantile ys 0.99))
  in
  let counts () =
    ("peak_heap_bytes", Printf.sprintf "%.0f" (peak_heap_mb *. 1e6))
    :: List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) first [])
  in
  let finish metrics notes =
    let repeat_ok = !repeat_ok && repeat_check cfg (counts ()) in
    { attempted = !attempted; failed = !failed; repeat_ok; metrics; notes }
  in
  if not cfg.trace then
    finish
      [
        ("setup_s", Stat.median setup_times);
        ( "ok_ratio",
          float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted) );
        ("ops_per_s", float_of_int !attempted /. !busy_scaled);
        ("op_ms", op_ms false);
        (* The latency percentiles are serve's: there a mix of three
           request classes crosses the daemon's protocol, queue and
           store. In-process ops are one input's op time each, so both read [op_ms]
           (every metric is read on every workload, and none may be 0).
           Each input's own p99 is in the notes. *)
        ("p50_ms", op_ms false);
        ("p99_ms", op_ms false);
        ("peak_heap_mb", peak_heap_mb);
        ( "out_kb",
          Stat.geomean (Array.to_list (Array.map float_of_int out_bytes)) /. 1e3 );
      ]
      notes
  else begin
    (* Per-layer figures from the spans of the traced rounds: per op,
       each span name's self time and self allocation; the allocation of
       every span must repeat exactly across the ops of one input. *)
    let of_op = Hashtbl.create 1024 in
    List.iter (fun s -> if s.s_traced then Hashtbl.replace of_op s.s_op s) samples;
    let by_op = Hashtbl.create 4096 in
    List.iter
      (fun (s : Span.self) ->
        let ms, w =
          Option.value (Hashtbl.find_opt by_op (s.s_name, s.s_op)) ~default:(0., 0.)
        in
        Hashtbl.replace by_op (s.s_name, s.s_op) (ms +. s.s_ms, w +. s.s_words))
      (Span.selves ());
    (* Span times at the nominal host speed, like the op times. *)
    Hashtbl.filter_map_inplace
      (fun (_, o) (ms, w) -> Some (ms *. (Hashtbl.find of_op o).s_factor, w))
      by_op;
    Hashtbl.iter
      (fun (name, o) (_, w) ->
        check_repeat
          (Printf.sprintf "words.%s.%s" name jobs.((Hashtbl.find of_op o).s_input).label)
          (Printf.sprintf "%.0f" w))
      by_op;
    let traced_ops i =
      List.filter_map
        (fun s -> if s.s_input = i && s.s_traced then Some s.s_op else None)
        samples
    in
    let sum_over names o pick =
      List.fold_left
        (fun acc nm ->
          acc +. pick (Option.value (Hashtbl.find_opt by_op (nm, o)) ~default:(0., 0.)))
        0. names
    in
    (* Mean over inputs of a per-input figure: the median over its
       traced ops for times, any one op for the exact allocation. *)
    let layer pick per_input (m, names) =
      ( m,
        Stat.mean
          (List.init n (fun i ->
               match traced_ops i with
               | [] -> 0.
               | os -> per_input (List.map (fun o -> sum_over names o pick) os))) )
    in
    let count key =
      Stat.mean
        (List.init n (fun i ->
             Option.fold ~none:0. ~some:float_of_string
               (Hashtbl.find_opt first (key ^ "." ^ jobs.(i).label))))
    in
    let traced_ms = op_ms true and plain_ms = op_ms false in
    let metrics =
      List.map (layer fst Stat.median) time_layers
      @ List.map (layer snd (fun ws -> List.hd ws /. 1e6)) alloc_layers
      @ [
          ("automaton.lr0_states", count "lr0_states");
          ("baselines.lr1_states", count "lr1_states");
          ("report.codegen_kb", count "codegen_bytes" /. 1e3);
          ("trace.overhead", traced_ms /. plain_ms);
        ]
    in
    Span.write
      (Filename.concat cfg.dir
         (Printf.sprintf "trace-%s-s%d.jsonl" cfg.workload cfg.seed));
    finish metrics
      (notes
      @ [
          Printf.sprintf "traced op_ms %.3f / untraced op_ms %.3f" traced_ms plain_ms;
          "layer shares of traced op time: "
          ^ String.concat ", "
              (layer_shares metrics (Stat.mean (per_input true Stat.median)));
        ])
  end

(* ------------------------------------------------------------------ *)
(* serve: a live daemon driven by one closed-loop connection          *)
(* ------------------------------------------------------------------ *)

type klass = Small | Hit | Miss

let pick rng a = a.(Random.State.int rng (Array.length a))

let klass_name = function Small -> "small" | Hit -> "hit" | Miss -> "miss"

(* Hits: language grammars whose analysis is slow enough to be
   persisted (json is not: it computes under the store's threshold). *)
let hit_names = [| "mini-pascal"; "mini-c"; "modula2"; "ada-subset"; "algol60" |]

(* One block of requests, sent in a shuffled order: 8 small, each hit
   grammar 5 times, 7 misses. The shares are fixed per block so the
   percentiles sit inside one band: sorted by latency, small requests
   fill the lowest 20%, mini-pascal and algol60 hits the next 25%, and
   the median falls inside the modula2 hits (45–57.5%); the 99th
   percentile falls in the tail of the misses. A hit names its grammar. *)
let block =
  Array.concat
    ([ Array.make 8 (Small, "") ]
    @ List.map (fun name -> Array.make 5 (Hit, name)) (Array.to_list hit_names)
    @ [ Array.make 7 (Miss, "") ])

let small_entries =
  Array.of_list
    (List.filter
       (fun (e : Registry.entry) -> not (List.mem e.name language_names))
       Registry.all)
(* Misses: one Scaled grammar of 4 units with its [num] terminal renamed
   per request, so every miss is a new store key for the same work. *)
let miss_label = Printf.sprintf "scaled-%x-4" Scaled.default_seed
let miss_template = lazy (scaled_text ~seed:Scaled.default_seed ~units:4)

let miss_text k =
  String.concat "\n"
    (List.map
       (fun line ->
         String.concat " "
           (List.map
              (fun w -> if w = "num" then Printf.sprintf "num_%d" k else w)
              (String.split_on_char ' ' line)))
       (String.split_on_char '\n' (Lazy.force miss_template)))

type daemon = {
  pid : int;
  sock : string;
  cache : string;
  log : string;
  endpoint : Serve.endpoint;
}

let rec remove_tree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let connectable sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ok =
    try
      Unix.connect fd (Unix.ADDR_UNIX sock);
      true
    with Unix.Unix_error _ -> false
  in
  Unix.close fd;
  ok

(* The daemon currently running, stopped at exit whatever happens. *)
let live_daemon = ref None

let start_daemon cfg tag =
  let base = Filename.concat cfg.dir (Printf.sprintf "d%d-%d" (Unix.getpid ()) tag) in
  let sock = base ^ ".sock" and cache = base ^ ".cache" and log = base ^ ".log" in
  let logfd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.lalrgen
      [| cfg.lalrgen; "serve"; "--socket"; sock; "--domains"; "1"; "--cache"; cache |]
      devnull logfd logfd
  in
  Unix.close devnull;
  Unix.close logfd;
  let deadline = now () +. 30. in
  while (not (connectable sock)) && now () < deadline do
    Unix.sleepf 0.001
  done;
  let d = { pid; sock; cache; log; endpoint = Serve.Unix_path sock } in
  live_daemon := Some d;
  if not (connectable sock) then failwith "serve: daemon did not become ready";
  d

let stop_daemon d =
  live_daemon := None;
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  wait ();
  List.iter remove_tree [ d.sock; d.cache; d.log ]

let call1 client line =
  match Client.call client [ line ] with
  | Ok [ resp ] -> Some resp
  | Ok _ | Error _ -> None

let json_of line = Result.to_option (Json.parse line)

let member_num name j =
  match Json.member name j with Some (Json.Num f) -> Some f | _ -> None

let classify_line id source =
  Protocol.encode_request
    (Protocol.Classify
       { id; source; budget = None; deadline_ms = None; trace_id = None })

(* Daemon-side figures: store counters from [health], queue-wait and
   compute histograms from the [metrics] scrape. *)
let health client =
  let j =
    Option.bind
      (call1 client (Protocol.encode_request (Protocol.Health { id = "h" })))
      json_of
  in
  let store k =
    Option.bind j (fun j ->
        Option.bind (Json.member "store" j) (member_num k))
  in
  (Option.value (store "hits") ~default:0., Option.value (store "misses") ~default:0.)

let scrape client =
  match
    Option.bind
      (call1 client (Protocol.encode_request (Protocol.Metrics { id = "m" })))
      json_of
  with
  | Some j -> (
      match Json.member "body" j with
      | Some (Json.Str body) -> Result.value (Metrics.parse body) ~default:[]
      | _ -> [])
  | None -> []

let hist snap name =
  match Metrics.find snap name with
  | Some (Metrics.Histogram h) ->
      (float_of_int (Array.fold_left ( + ) 0 h.counts), float_of_int h.sum_ns)
  | _ -> (0., 0.)

(* Mean of a histogram's observations between two scrapes, in ms. *)
let hist_mean_ms before after name =
  let c0, s0 = hist before name and c1, s1 = hist after name in
  if c1 > c0 then (s1 -. s0) /. (c1 -. c0) /. 1e6 else 0.

let heap_mb snap =
  List.fold_left
    (fun acc (s : Metrics.sample) ->
      match s.value with
      | Metrics.Gauge w when s.name = "lalr_serve_gc_heap_words" ->
          Float.max acc (w *. float_of_int (Sys.word_size / 8) /. 1e6)
      | _ -> acc)
    0. snap

type reply = {
  r_op : int;
  r_class : klass;
  r_source : string;  (** grammar name, or [miss_label] *)
  r_ms : float;
  r_factor : float;  (** the host-speed factor of its block *)
  r_traced : bool;
  r_ok : bool;
  r_bytes : int;
  r_stages : (string * float) list;
  r_lr0 : float option;
}

(* Per-layer metric → the engine stages whose times (milliseconds,
   measured in the daemon) a miss response reports for it; the same
   grouping the in-process spans use. *)
let served_stages =
  [
    ("grammar.analysis_ms", [ "analysis" ]);
    ("automaton.lr0_ms", [ "lr0" ]);
    ("core.relations_ms", [ "relations" ]);
    ("core.follow_ms", [ "follow" ]);
    ("core.la_ms", [ "la" ]);
    ("baselines.lr1_ms", [ "lr1" ]);
    ("baselines.nqlalr_ms", [ "nqlalr" ]);
    ("baselines.slr_ms", [ "slr" ]);
    ("tables.tables_ms", [ "tables" ]);
    ( "tables.classify_ms",
      [ "slr_tables"; "nqlalr_tables"; "classification+lr1" ] );
  ]

let run_serve cfg =
  at_exit (fun () -> Option.iter stop_daemon !live_daemon);
  List.iter
    (fun (e : Registry.entry) -> ignore (Lazy.force e.grammar))
    Registry.all;
  if cfg.trace then Span.arm (1 lsl 16);
  let warm d =
    let client = Client.create d.endpoint in
    Array.iter
      (fun name ->
        ignore
          (call1 client
             (classify_line ("warm-" ^ name) (Protocol.File ("suite:" ^ name)))))
      hit_names;
    Client.close client
  in
  (* Set-up: start a daemon on an empty store and warm it with the hit
     class; repeated, the last daemon serves the run. *)
  let daemon = ref None in
  let setup_times =
    List.init setup_reps (fun k ->
        Option.iter stop_daemon !daemon;
        let d, t =
          timed_setup (fun () ->
              let d = start_daemon cfg k in
              warm d;
              d)
        in
        daemon := Some d;
        t)
  in
  let d = Option.get !daemon in
  let ctl = Client.create d.endpoint in
  let hits0, misses0 = health ctl in
  let snap0 = scrape ctl in
  (* The bench's own store handles: the daemon's directory (read only,
     for [Store.load]) and a private one (for [Store.save]). *)
  let shared = Store.create ~dir:d.cache in
  let private_dir = d.cache ^ "-bench" in
  let private_store = Store.create ~dir:private_dir in
  let rng = Random.State.make [| cfg.seed; 17 |] in
  let client = Client.create d.endpoint in
  let replies = ref [] and attempted = ref 0 and failed = ref 0 in
  let op = ref 0 and blk = ref 0 in
  let busy = ref 0. and busy_scaled = ref 0. and heap_samples = ref [] in
  let request ~traced (cls, hit) =
    incr op;
    incr attempted;
    let op = !op in
    let id = Printf.sprintf "r%d" op in
    let label, source, expect, grammar =
      match cls with
      | Small ->
          let e = pick rng small_entries in
          ( e.Registry.name,
            Protocol.File ("suite:" ^ e.name),
            e.expected.lalr1,
            None )
      | Hit ->
          let e = registry hit in
          ( e.name,
            Protocol.File ("suite:" ^ e.name),
            e.expected.lalr1,
            Some (Lazy.force e.grammar) )
      | Miss ->
          let text = miss_text op in
          ( miss_label,
            Protocol.Inline { text; format = `Cfg },
            true,
            Some (Reader.of_string ~name:"request" text) )
    in
    let line = classify_line id source in
    if traced then begin
      Span.reserve 8;
      let decoded =
        Span.with_ "serve.decode" ~op (fun () -> Protocol.decode_request line)
      in
      if Result.is_error decoded then failwith "request does not decode"
    end;
    let t0 = now () in
    let resp =
      Span.with_ ~enabled:traced "serve.call" ~op (fun () -> call1 client line)
    in
    let ms = (now () -. t0) *. 1e3 in
    let j = Option.bind resp json_of in
    let ok =
      match j with
      | None -> false
      | Some j ->
          Json.member "id" j = Some (Json.Str id)
          && Json.member "status" j
             = Some (Json.Str (if expect then "ok" else "verdict"))
          && Json.member "lalr1" j = Some (Json.Bool expect)
    in
    let stages =
      match Option.bind j (Json.member "stages") with
      | Some (Json.Obj kvs) ->
          List.filter_map
            (fun (k, v) -> match v with Json.Num s -> Some (k, s) | _ -> None)
            kvs
      | _ -> []
    in
    (* Traced hits and misses also time the store layer from the
       bench: a load of the entry the daemon just served or wrote, and
       for misses a save of it to a private store. *)
    (match (traced, cls, grammar) with
    | true, (Hit | Miss), Some g -> (
        let b = Span.with_ "store.load" ~op (fun () -> Store.load shared g) in
        match (cls, b) with
        | Miss, Some b ->
            Span.with_ "store.save" ~op (fun () -> Store.save private_store b)
        | _ -> ())
    | _ -> ());
    if not ok then begin
      incr failed;
      Printf.eprintf "perfbench: serve %s (%s): unexpected response %s\n%!" id
        (klass_name cls) (Option.value resp ~default:"<none>")
    end;
    {
      r_op = op;
      r_class = cls;
      r_source = label;
      r_ms = ms;
      r_factor = 1.;
      r_traced = traced;
      r_ok = ok;
      r_bytes = Option.fold ~none:0 ~some:String.length resp;
      r_stages = stages;
      r_lr0 = Option.bind j (member_num "lr0_states");
    }
  in
  (* Whole blocks, as the in-process workloads run whole rounds. After
     each request the daemon's heap is sampled from its scrape (the
     scrape's time is left out of the block's). After each block, with
     no request in flight and the daemon idle, the host kernel is timed
     and scales that block's times. *)
  let t_start = now () in
  while now () -. t_start < cfg.seconds do
    let traced = cfg.trace && !blk mod 2 = 1 in
    let block_start = now () and scraping = ref 0. in
    let rs =
      List.filter_map
        (fun ((cls, _) as spec) ->
          let r =
            try Some (request ~traced spec)
            with e ->
              incr failed;
              Printf.eprintf "perfbench: serve %s request raised %s\n%!"
                (klass_name cls) (Printexc.to_string e);
              None
          in
          let t0 = now () in
          heap_samples := heap_mb (scrape ctl) :: !heap_samples;
          scraping := !scraping +. (now () -. t0);
          r)
        (Array.to_list (shuffle rng block))
    in
    let block_time = now () -. block_start -. !scraping in
    let f = host_factor () in
    busy := !busy +. block_time;
    busy_scaled := !busy_scaled +. (block_time *. f);
    replies := List.rev_append (List.map (fun r -> { r with r_factor = f }) rs) !replies;
    incr blk
  done;
  let elapsed = now () -. t_start in
  let hits1, misses1 = health ctl in
  let snap1 = scrape ctl in
  Client.close client;
  Client.close ctl;
  stop_daemon d;
  remove_tree private_dir;
  let replies = !replies in
  (* Host speed over the whole loop, for the daemon's own histograms. *)
  let f_loop = !busy_scaled /. !busy in
  let times ?(scaled = true) keep =
    List.filter_map
      (fun r ->
        if keep r then Some (if scaled then r.r_ms *. r.r_factor else r.r_ms)
        else None)
      replies
  in
  let lat ?traced cls =
    times (fun r ->
        (cls = None || Some r.r_class = cls)
        && (traced = None || Some r.r_traced = traced))
  in
  let count cls = List.length (lat (Some cls)) in
  let class_medians ~scaled =
    Printf.sprintf "small %.3f ms, hit %.3f ms, miss %.3f ms"
      (Stat.median (times ~scaled (fun r -> r.r_class = Small)))
      (Stat.median (times ~scaled (fun r -> r.r_class = Hit)))
      (Stat.median (times ~scaled (fun r -> r.r_class = Miss)))
  in
  let notes =
    [
      Printf.sprintf
        "workload serve, seed %d, cores %d, 1 connection, %d requests \
         (small %d, hit %d, miss %d), %.2f s"
        cfg.seed (nproc ()) !attempted (count Small) (count Hit) (count Miss) elapsed;
      Printf.sprintf "host: factor %.3f (busy %.2f s, %.2f s scaled)" f_loop !busy
        !busy_scaled;
      Printf.sprintf "daemon heap samples: median %.3f MB, p90 %.3f MB, max %.3f MB"
        (Stat.median !heap_samples) (Stat.quantile !heap_samples 0.9)
        (List.fold_left Float.max 0. !heap_samples);
      "class medians, scaled: " ^ class_medians ~scaled:true;
      "class medians, as measured: " ^ class_medians ~scaled:false;
      "hit medians, scaled: "
      ^ String.concat ", "
          (List.map
             (fun name ->
               Printf.sprintf "%s %.3f ms" name
                 (Stat.median
                    (times (fun r -> r.r_class = Hit && r.r_source = name))))
             (Array.to_list hit_names));
    ]
  in
  (* Deterministic counts: the LR(0) state count each grammar's
     responses report must repeat within the run and across runs. *)
  let repeat_ok =
    let seen = Hashtbl.create 64 in
    let ok =
      List.for_all
        (fun r ->
          match r.r_lr0 with
          | None -> true
          | Some k -> (
              let key = "lr0_states." ^ r.r_source in
              match Hashtbl.find_opt seen key with
              | Some k' when k' <> k ->
                  Printf.eprintf
                    "perfbench: EXACT-REPEAT FAILURE within the run: %s was \
                     %.0f, now %.0f\n%!"
                    key k' k;
                  false
              | _ ->
                  Hashtbl.replace seen key k;
                  true))
        replies
    in
    ok
    && repeat_check cfg
         (List.sort compare
            (Hashtbl.fold (fun k v acc -> (k, Printf.sprintf "%.0f" v) :: acc) seen []))
  in
  if not cfg.trace then begin
    let all = lat None in
    let metrics =
      [
        ("setup_s", Stat.median setup_times);
        ( "ok_ratio",
          float_of_int (!attempted - !failed) /. float_of_int (max 1 !attempted) );
        ("ops_per_s", float_of_int !attempted /. !busy_scaled);
        ( "op_ms",
          Stat.geomean
            (List.map (fun c -> Stat.median (lat (Some c))) [ Small; Hit; Miss ])
        );
        ("p50_ms", Stat.quantile all 0.5);
        ("p99_ms", Stat.quantile all 0.99);
        ("peak_heap_mb", Stat.quantile !heap_samples 0.9);
        ( "out_kb",
          Stat.mean (List.map (fun r -> float_of_int r.r_bytes) replies) /. 1e3 );
      ]
    in
    { attempted = !attempted; failed = !failed; repeat_ok; metrics; notes }
  end
  else begin
    let factor_of = Hashtbl.create 4096 in
    List.iter (fun r -> Hashtbl.replace factor_of r.r_op r.r_factor) replies;
    let span_ms name =
      List.filter_map
        (fun (s : Span.self) ->
          if s.s_name = name then
            Some (s.s_ms *. Option.value (Hashtbl.find_opt factor_of s.s_op) ~default:f_loop)
          else None)
        (Span.selves ())
    in
    let misses = List.filter (fun r -> r.r_class = Miss && r.r_ok) replies in
    let stage names =
      Stat.median
        (List.map
           (fun r ->
             r.r_factor
             *. List.fold_left
                  (fun acc nm ->
                    acc +. Option.value (List.assoc_opt nm r.r_stages) ~default:0.)
                  0. names)
           misses)
    in
    let p50 traced = Stat.quantile (lat ~traced None) 0.5 in
    let dh = hits1 -. hits0 and dm = misses1 -. misses0 in
    let metrics =
      List.map (fun (m, names) -> (m, stage names)) served_stages
      @ [
          ( "automaton.lr0_states",
            Stat.mean (List.filter_map (fun r -> r.r_lr0) misses) );
          ("store.load_ms", Stat.median (span_ms "store.load"));
          ("store.save_ms", Stat.median (span_ms "store.save"));
          ("store.hit_ratio", if dh +. dm > 0. then dh /. (dh +. dm) else 0.);
          ("serve.decode_us", 1e3 *. Stat.median (span_ms "serve.decode"));
          ("serve.rtt_small_ms", Stat.median (lat ~traced:true (Some Small)));
          ( "serve.queue_wait_ms",
            f_loop *. hist_mean_ms snap0 snap1 "lalr_serve_queue_wait_seconds" );
          ( "serve.compute_ms",
            f_loop *. hist_mean_ms snap0 snap1 "lalr_serve_compute_seconds" );
          ("trace.overhead", p50 true /. p50 false);
        ]
    in
    Span.write
      (Filename.concat cfg.dir (Printf.sprintf "trace-serve-s%d.jsonl" cfg.seed));
    let notes =
      notes
      @ [
          Printf.sprintf "traced p50_ms %.3f / untraced p50_ms %.3f" (p50 true)
            (p50 false);
        ]
    in
    { attempted = !attempted; failed = !failed; repeat_ok; metrics; notes }
  end

(* ------------------------------------------------------------------ *)
(* Main                                                               *)
(* ------------------------------------------------------------------ *)

let verdict_jobs _rng = Array.of_list (List.map verdict_job language_names)

(* Six Scaled grammars of 60 units, about 3× mini-c. The default 10×
   size peaks at 1.3 GB of heap (the dense LR(0) goto tables grow with
   states × symbols), too much to run beside other work; at 90 units
   (137 MB per op) the ops were memory-bound enough that the host-speed
   kernel tracked them poorly, and four inputs of 60–70 ops each gave
   an op_ms spread near 0.11 against 0.06 here. *)
let conflicts_jobs rng =
  Array.of_list
    (List.map (fun seed -> conflicts_job (seed, 60)) (scaled_seeds rng 6))

let generate_jobs rng =
  let languages =
    List.map
      (fun name ->
        (name, Reader.to_string (Lazy.force (registry name).Registry.grammar)))
      language_names
  in
  let scaled =
    List.map2
      (fun seed units ->
        (Printf.sprintf "scaled-%x-%d" seed units, scaled_text ~seed ~units))
      (scaled_seeds rng 2) [ 3; 6 ]
  in
  Array.of_list (List.map (generate_job rng) (languages @ scaled))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let lalrgen = ref "_build/default/bin/lalrgen.exe" and dir = ref ".perfbench" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME verdict|conflicts|generate|serve");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--lalrgen", Arg.Set_string lalrgen, "PATH daemon binary (serve)");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for counts, traces, sockets");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !dir) then Sys.mkdir !dir 0o755;
  let cfg =
    {
      workload = !workload;
      seed = !seed;
      seconds = !seconds;
      trace = !trace = 1;
      lalrgen = !lalrgen;
      dir = !dir;
    }
  in
  let result =
    match cfg.workload with
    | "verdict" -> run_inprocess cfg ~make_jobs:verdict_jobs
    | "conflicts" -> run_inprocess cfg ~make_jobs:conflicts_jobs
    | "generate" -> run_inprocess cfg ~make_jobs:generate_jobs
    | "serve" -> run_serve cfg
    | w ->
        Printf.eprintf "perfbench: unknown workload %S\n" w;
        exit 2
  in
  print_result cfg result
