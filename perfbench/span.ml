(* In-memory spans recorded by the benchmark around its calls into each
   layer: name, start, end, parent and op id, plus the words the
   calling domain allocated inside the span. Nothing is written until
   [write]; when disarmed, [with_] is a plain call.

   Storage is a set of preallocated parallel arrays, grown only between
   ops ([reserve]), so recording never perturbs the allocation a span
   measures. Spans are recorded from one thread: the innermost open
   span is the parent of the next. *)

(* Seconds on the monotonic clock, at nanosecond resolution (the
   microsecond wall clock quantises sub-millisecond latencies). *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let armed = ref false
let cap = ref 0
let n = ref 0
let names = ref [||]
let ops = ref [||]
let parents = ref [||]
let starts = ref [||]
let stops = ref [||]
let words = ref [||]
let stack = ref []

(* Words allocated so far by this domain: minor allocations plus
   direct major allocations (promotions are not new words). The runtime
   settles its minor-word count only at a minor collection, so one is
   forced first; without it a span's figure can be off by a large
   fraction of the minor heap. *)
let alloc_words () =
  Gc.minor ();
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let grow want =
  if want > !cap then begin
    let c = max want (2 * !cap) in
    let extend a fill =
      let b = Array.make c fill in
      Array.blit a 0 b 0 !n;
      b
    in
    names := extend !names "";
    ops := extend !ops 0;
    parents := extend !parents (-1);
    starts := extend !starts 0.;
    stops := extend !stops 0.;
    words := extend !words 0.;
    cap := c
  end

let arm capacity =
  armed := true;
  grow capacity

(* Make room for [k] more spans; call between ops only. *)
let reserve k = grow (!n + k)

let enter name op =
  let i = !n in
  if i >= !cap then grow (i + 1);
  n := i + 1;
  !names.(i) <- name;
  !ops.(i) <- op;
  !parents.(i) <- (match !stack with p :: _ -> p | [] -> -1);
  stack := i :: !stack;
  !words.(i) <- alloc_words ();
  !starts.(i) <- now ();
  i

let leave i =
  let t = now () in
  let w = alloc_words () in
  !stops.(i) <- t;
  !words.(i) <- w -. !words.(i);
  stack := List.tl !stack

(* [with_ name ~op f] runs [f], recording a span when armed and
   [enabled] (the traced run alternates traced and untraced rounds). *)
let with_ ?(enabled = true) name ~op f =
  if not (!armed && enabled) then f ()
  else begin
    let i = enter name op in
    match f () with
    | v ->
        leave i;
        v
    | exception e ->
        leave i;
        raise e
  end

type self = { s_name : string; s_op : int; s_ms : float; s_words : float }

(* Self time and self allocation of every recorded span: its own
   figures minus what its child spans cover. *)
let selves () =
  let k = !n in
  let child_t = Array.make k 0. and child_w = Array.make k 0. in
  for i = 0 to k - 1 do
    let p = !parents.(i) in
    if p >= 0 then begin
      child_t.(p) <- child_t.(p) +. (!stops.(i) -. !starts.(i));
      child_w.(p) <- child_w.(p) +. !words.(i)
    end
  done;
  List.init k (fun i ->
      {
        s_name = !names.(i);
        s_op = !ops.(i);
        s_ms = (!stops.(i) -. !starts.(i) -. child_t.(i)) *. 1e3;
        s_words = !words.(i) -. child_w.(i);
      })

(* One JSON object per span, times in microseconds from the first. *)
let write path =
  let k = !n in
  let t0 = if k = 0 then 0. else !starts.(0) in
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to k - 1 do
        Printf.fprintf oc
          "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\
           \"start_us\":%.1f,\"end_us\":%.1f,\"words\":%.0f}\n"
          i !names.(i) !ops.(i) !parents.(i)
          ((!starts.(i) -. t0) *. 1e6)
          ((!stops.(i) -. t0) *. 1e6)
          !words.(i)
      done)
