(* A gauge of how fast the host is running this process right now, taken
   between the timed pieces of a pass, and the pieces' times rescaled by
   it to an uncontended core.

   On a shared host the core's other hardware thread is busy some of the
   time, in phases of seconds to minutes, and then code with much
   instruction-level parallelism, the simulator among it, runs up to ~2x
   slower while a single chain of dependent operations varies far less.
   The probe is such parallel code: six independent add/xor chains in
   registers, no memory traffic, no allocation. Over 300 runs of one
   image, its time before and after each run tracked the run's time with
   correlation 0.89, and the ratio of the two spread 0.10 (IQR/median)
   where the run's time alone spread 0.31. *)

let now = Unix.gettimeofday

let kernel n =
  let a = ref 1 and b = ref 2 and c = ref 3 in
  let d = ref 4 and e = ref 5 and f = ref 6 in
  for i = 1 to n do
    a := !a + i;
    b := !b lxor i;
    c := !c + (i lsl 1);
    d := !d lxor (i lsr 1);
    e := !e + (i land 7);
    f := !f - i
  done;
  !a + !b + !c + !d + !e + !f

let iterations = 2_000_000

(* Seconds [kernel iterations] takes on an uncontended core of the 2-core
   x86-64 VM (2.1 GHz Xeon) the bounds in BENCHMARK.json were set on: the
   scale of every contention-adjusted time. *)
let nominal_s = 0.00207

let probe () =
  let t = now () in
  ignore (Sys.opaque_identity (kernel (Sys.opaque_identity iterations)));
  now () -. t

(* One timed piece of a pass: its wall time and that time rescaled by the
   probes on either side, [raw_s * nominal_s / mean probe]. *)
type piece =
  { name : string;
    raw_s : float;
    adj_s : float
  }

type t = { mutable last : float  (** the latest probe's seconds *) }

let start () = { last = probe () }

let piece g name f =
  let t = now () in
  let r = f () in
  let raw_s = now () -. t in
  let p = probe () in
  let adj_s = raw_s *. nominal_s /. ((g.last +. p) /. 2.0) in
  g.last <- p;
  (r, { name; raw_s; adj_s })

let sum f pieces = List.fold_left (fun a p -> a +. f p) 0.0 pieces
