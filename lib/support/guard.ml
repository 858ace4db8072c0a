(* Fault-containment primitives for the fail-safe pipeline.

   Four small mechanisms, shared by the optimizer, the analyses, the
   harness and the compile server:

   - explicit fuel counters: a mutable iteration budget whose
     exhaustion raises [Fuel_exhausted] — the deterministic analogue of
     a wall-clock watchdog, so a hung dataflow fixpoint is caught at
     the same tick on every run;
   - an ambient per-domain fuel stack: [with_fuel] installs a budget
     for the dynamic extent of a computation, and [tick_ambient]
     (called from fixpoint loops) charges every installed budget, so an
     outer watchdog (a pool task) bounds everything nested under it;
   - ambient wall-clock deadlines: [with_deadline] rides the same
     ticking — every [deadline_stride]-th ambient tick reads the
     monotonic clock and raises [Deadline_exceeded] past the budget.
     Fuel stays the deterministic bound; the deadline is the server's
     latency contract layered on top of it;
   - atomic file writes (temp file + rename in the target directory),
     so an interrupted run never leaves a half-written JSON or cache
     entry behind. *)

exception Fuel_exhausted of string
exception Deadline_exceeded of string
exception Mem_exceeded of string

type fuel = { what : string; mutable remaining : int }

let fuel ~what ~budget = { what; remaining = max 1 budget }

let remaining f = f.remaining

let tick f =
  f.remaining <- f.remaining - 1;
  if f.remaining <= 0 then raise (Fuel_exhausted f.what)

type deadline = { dwhat : string; started : Mclock.counter; budget_s : float }

let deadline ~what ~seconds = { dwhat = what; started = Mclock.counter (); budget_s = seconds }

let expired d = Mclock.elapsed_s d.started > d.budget_s

let remaining_s d = Float.max 0.0 (d.budget_s -. Mclock.elapsed_s d.started)

let check d = if expired d then raise (Deadline_exceeded d.dwhat)

(* --- memory watchdog --------------------------------------------------- *)

(* The budget bounds the major heap (in bytes) of the whole process. A
   Gc alarm — run at the end of every major collection, on whichever
   domain finished it — samples the heap and sets [mem_over]; the
   ambient ticking reads that one atomic flag (cheap) and only
   re-samples when it is set, so a collection that freed enough memory
   clears the flag instead of killing the next request. Budget 0 means
   "no budget installed". *)

let word_bytes = Sys.word_size / 8
let mem_budget_bytes = Atomic.make 0
(* [mem_level] reports [`Pressure] past this share of the budget. *)
let mem_shed_permille = 800
let mem_over = Atomic.make false
let mem_alarm_installed = Atomic.make false

let mem_heap_bytes () = (Gc.quick_stat ()).Gc.heap_words * word_bytes

let mem_sample_over () =
  let b = Atomic.get mem_budget_bytes in
  b > 0 && mem_heap_bytes () >= b

let set_mem_budget ~bytes () =
  match bytes with
  | None ->
      Atomic.set mem_budget_bytes 0;
      Atomic.set mem_over false
  | Some b ->
      Atomic.set mem_budget_bytes (max 1 b);
      Atomic.set mem_over (mem_sample_over ());
      if not (Atomic.exchange mem_alarm_installed true) then
        ignore
          (Gc.create_alarm (fun () -> Atomic.set mem_over (mem_sample_over ())))

let mem_budget () =
  match Atomic.get mem_budget_bytes with 0 -> None | b -> Some b

let mem_level () =
  let b = Atomic.get mem_budget_bytes in
  if b = 0 then `Ok
  else begin
    let h = mem_heap_bytes () in
    if h >= b then begin
      Atomic.set mem_over true;
      `Over
    end
    else begin
      if Atomic.get mem_over then Atomic.set mem_over false;
      if h * 1000 >= b * mem_shed_permille then `Pressure else `Ok
    end
  end

let check_mem () =
  if Atomic.get mem_over then begin
    if mem_sample_over () then
      raise
        (Mem_exceeded
           (Printf.sprintf "major heap %d bytes over budget %d" (mem_heap_bytes ())
              (Atomic.get mem_budget_bytes)))
    else Atomic.set mem_over false
  end

(* The ambient state is per-domain: pool workers each carry their own,
   so one task's budget never charges another's. Deadlines are checked
   only every [deadline_stride]-th tick — the clock read is ~25ns, the
   stride keeps it off the fixpoint loops' critical path. *)
type ambient_state = {
  mutable fuels : fuel list;
  mutable deadlines : deadline list;
  mutable ticks : int;
}

let deadline_stride = 128 (* power of two: the throttle is a mask *)

let ambient : ambient_state Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { fuels = []; deadlines = []; ticks = 0 })

let with_fuel f body =
  let st = Domain.DLS.get ambient in
  st.fuels <- f :: st.fuels;
  Fun.protect ~finally:(fun () -> st.fuels <- List.tl st.fuels) body

let with_deadline d body =
  let st = Domain.DLS.get ambient in
  st.deadlines <- d :: st.deadlines;
  Fun.protect ~finally:(fun () -> st.deadlines <- List.tl st.deadlines) body

let check_deadlines () = List.iter check (Domain.DLS.get ambient).deadlines

let tick_ambient () =
  let st = Domain.DLS.get ambient in
  List.iter tick st.fuels;
  check_mem ();
  match st.deadlines with
  | [] -> ()
  | ds ->
      st.ticks <- st.ticks + 1;
      if st.ticks land (deadline_stride - 1) = 0 then List.iter check ds

let rec exhaust_ambient () =
  let st = Domain.DLS.get ambient in
  match (st.fuels, st.deadlines) with
  | [], [] ->
      raise (Fuel_exhausted "exhaust_ambient: no ambient budget installed")
  | _ ->
      tick_ambient ();
      exhaust_ambient ()

(* --- atomic writes ---------------------------------------------------- *)

(* The temp file lives in the target's own directory so the final
   [Sys.rename] stays within one filesystem (rename is atomic there). *)
let write_atomic ~path contents =
  let dir = Filename.dirname path in
  let tmp = Filename.temp_file ~temp_dir:dir (Filename.basename path ^ ".") ".tmp" in
  match
    Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc contents);
    Sys.rename tmp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove tmp with Sys_error _ -> ());
      raise e
