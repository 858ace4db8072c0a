(* What every workload receives: its seed-derived random state, its
   measuring budget and where it may write. *)

module Mclock = Nascent_support.Mclock

type t = {
  seed : int;
  seconds : float; (* measuring budget *)
  min_rounds : int; (* in-process workloads run at least this many rounds *)
  traced : bool;
  dir : string; (* this run's working directory, inside the checkout *)
  nascentd : string;
  expected : string; (* golden outputs of the suite programs *)
  rng : Random.State.t;
}

let shuffle rng a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

let pick rng a = a.(Random.State.int rng (Array.length a))

(* Set-up is repeated and its median reported, so that one slow start
   does not decide the number; the value of the last repetition is the
   one the workload goes on to measure. An in-process set-up is timed in
   CPU seconds, like everything the end-to-end metrics report. *)
let setup_repeats = 5

let repeat_setup f =
  let rec go k times last =
    if k = 0 then (Stat.median times, Option.get last)
    else
      let t = Cpu.self () in
      let v = f () in
      go (k - 1) ((Cpu.self () -. t) :: times) (Some v)
  in
  go setup_repeats [] None

(* Keep running rounds until the budget is spent, at least [min_rounds]. *)
let rounds w f =
  let t0 = Mclock.counter () in
  let rec go i =
    if i < w.min_rounds || Mclock.elapsed_s t0 < w.seconds then begin
      f i;
      go (i + 1)
    end
    else i
  in
  go 0
