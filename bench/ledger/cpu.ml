(* CPU time, the clock the end-to-end metrics are measured on.

   On a shared host the hypervisor hands the VM's cores to other guests
   for stretches of seconds, and every wall-clock figure stretches with
   them: over ten runs of serve-hit the request latency followed the
   host's steal time with a correlation of 0.9. The kernel leaves stolen
   time out of a process's CPU clock, so CPU time per operation stays
   put while latency swings (see README.md, "Measured spread"). *)

(* Seconds of CPU used so far by every thread of [pid], ended ones
   included; nan once the process is gone. *)
external process_s : int -> float = "ledger_cpu_s"

let self () = process_s 0
