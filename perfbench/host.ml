(* Host speed. The containers this benchmark runs on share their cores
   with other tenants, and a fixed piece of work can take almost twice
   as long from one minute to the next; CPU time tracks wall time, so
   the slowdown is not preemption. A fixed reference kernel — stdlib
   code only, so it is identical on every commit of the program — is
   timed beside the workload, and every reported time is scaled to the
   speed at which the kernel takes [nominal_ms]. A change to the
   program moves the scaled times fully; a change in host speed moves
   the kernel too and cancels out.

   The kernel does the engine's kind of work: hashing small int arrays
   into a table of lists, sorting, formatting. Its allocation (about
   75k words) fits in the minor heap, and a minor collection is forced
   before it is timed, so no collection runs inside it and the
   program's garbage is never billed to the kernel. *)

(* The kernel's median on the 2-core reference container; any fixed
   value would do, it only sets the scale of the reported times. *)
let nominal_ms = 1.6

let kernel () =
  let h = Hashtbl.create 64 in
  for i = 0 to 3000 do
    let k = Array.init 6 (fun j -> ((i * 7919) + (j * 104729)) land 1023) in
    Hashtbl.replace h k (i :: Option.value (Hashtbl.find_opt h k) ~default:[])
  done;
  let l = List.sort compare (List.init 4000 (fun i -> (i * 48271) land 65535)) in
  let b = Buffer.create 16 in
  List.iteri
    (fun i x -> if i land 3 = 0 then Buffer.add_string b (string_of_int x))
    l;
  let r = ref 0 in
  for i = 1 to 300_000 do
    r := !r lxor (i * 7)
  done;
  Hashtbl.length h + Buffer.length b + !r

(* One timing of the kernel, in milliseconds. *)
let sample () =
  Gc.minor ();
  let t0 = Span.now () in
  ignore (Sys.opaque_identity (kernel ()));
  (Span.now () -. t0) *. 1e3

(* The factor that scales a time measured while the kernel took
   [samples] (their median) to the nominal host speed. *)
let factor samples = nominal_ms /. Stat.median samples
