(* What one round of a workload measured. *)

type t = {
  setup_s : float;  (** Everything paid before the first answer, summed over the round's set-ups. *)
  solve_s : float;  (** The pass that computes every answer. *)
  cached_s : float;  (** The [passes] passes answered from the store. *)
  leakage_ua : float;  (** Sum of the distinct answers' leakage. *)
  rss_mb : float option;  (** VmHWM of the optimizing process after the timed phases. *)
  layer : (string * float) list;  (** Per-layer readings of a traced round. *)
  passes : int;  (** Cached passes in the round. *)
  trace_files : string list;  (** Daemon trace files of a traced round. *)
  latencies : (float * float list) list;
      (** Served rounds: each request's miss latency and its hit
          latencies, in request order; [] in process. *)
}

(* Set-ups per round.  One set-up takes 0.3–0.6 s on the reference
   host, too short to time steadily there, so a round sets up this many
   times and [setup_s] is the sum. *)
let setup_repeats = 4

(* Run [setup] [repeats] times, each timed on its own; return the last
   result and the summed time.  [discard] releases every earlier
   result, outside the timing. *)
let repeat_setup ~repeats ~discard setup =
  let rec go i total =
    let x, s = Standby_util.Timer.time setup in
    if i >= repeats then (x, total +. s)
    else begin
      discard x;
      go (i + 1) (total +. s)
    end
  in
  go 1 0.0
