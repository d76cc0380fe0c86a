(* Independent answer checks.

   Every answer the benchmark receives is re-derived here from
   first principles rather than compared with a stored copy of an
   earlier run: the delay by a fresh full static-timing analysis of
   the returned assignment, the leakage by the transistor-level stack
   solver, the packed random-vector average by the scalar simulator. *)

module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Stack_solver = Standby_cells.Stack_solver
module Netlist = Standby_netlist.Netlist
module Sta = Standby_timing.Sta
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate
module Direct_eval = Standby_power.Direct_eval

(* Relative tolerance between the reported leakage (library tables)
   and the stack-solver re-solve: the two paths share the device
   models, so they agree to float summation order. *)
let leakage_tolerance = 1e-6

(* Relative tolerance between the packed and the scalar random-vector
   average: the same vectors, summed in a different order. *)
let average_tolerance = 1e-9

(* Slack granted to the delay comparison against the budget: float
   rounding between the optimizer's incremental timing and a fresh
   full update. *)
let delay_tolerance = 1e-9

let close ~tol a b = Float.abs (a -. b) <= 1e-18 +. (tol *. Float.abs b)

type answer = {
  lib : Library.t;
  net : Netlist.t;
  penalty : float;
  budget : float;  (** As reported with the answer. *)
  leakage : float;  (** Reported total, A. *)
  assignment : string;  (** {!Assignment.to_string} payload. *)
}

let fresh_delay lib net (a : Assignment.t) =
  let sta = Sta.create lib net in
  Netlist.iter_gates net (fun id _ _ ->
      let entry = Assignment.choice lib net a id in
      Sta.assign sta id ~version:entry.Version.version ~perm:entry.Version.perm);
  Sta.update sta;
  Sta.circuit_delay sta

(* Delay within budget by a fresh full STA, the reported budget equal
   to the paper's definition for the penalty, and the leakage re-solved
   gate by gate within [leakage_tolerance]. *)
let answer ~cache (x : answer) =
  match Assignment.of_string x.lib x.net x.assignment with
  | Error msg -> Error ("assignment does not decode: " ^ msg)
  | Ok a ->
    let budget = Sta.budget_for_penalty x.lib x.net ~penalty:x.penalty in
    let delay = fresh_delay x.lib x.net a in
    if not (close ~tol:delay_tolerance x.budget budget) then
      Error (Printf.sprintf "reported budget %.6g, expected %.6g" x.budget budget)
    else if delay > budget *. (1.0 +. delay_tolerance) then
      Error (Printf.sprintf "delay %.6g exceeds budget %.6g" delay budget)
    else
      let direct = Direct_eval.of_assignment ~cache x.lib x.net a in
      if not (close ~tol:leakage_tolerance x.leakage direct.Evaluate.total) then
        Error
          (Printf.sprintf "reported leakage %.9g A, stack solver gives %.9g A" x.leakage
             direct.Evaluate.total)
      else Ok ()

(* The packed average against the scalar oracle on the same vectors. *)
let random_average ~vectors ~seed lib net (packed : Evaluate.breakdown) =
  let scalar = Evaluate.random_vector_average_scalar ~vectors ~seed lib net in
  if close ~tol:average_tolerance packed.Evaluate.total scalar.Evaluate.total then Ok ()
  else
    Error
      (Printf.sprintf "packed average %.12g A, scalar %.12g A" packed.Evaluate.total
         scalar.Evaluate.total)

let new_cache () = Stack_solver.create_cache ()

(* ------------------------------------------------------------------ *)
(* Ledger: every operation of every round, matched against the first
   answer seen for its label.  An occurrence fails if it was wrong on
   arrival (wrong status, transport error), if its answer differs from
   the label's first answer, or if that first answer fails its
   independent check. *)

type entry = {
  fp : string;  (** Fingerprint of the first answer. *)
  check : unit -> (unit, string) result;
  mutable verdict : (unit, string) result option;
  mutable good : int;
  mutable bad : int;
}

type ledger = { entries : (string, entry) Hashtbl.t; mutable order : string list }

let ledger () = { entries = Hashtbl.create 256; order = [] }

let add l label ~fp ~check =
  let e = { fp; check; verdict = None; good = 0; bad = 0 } in
  Hashtbl.replace l.entries label e;
  l.order <- label :: l.order;
  e

(* Fix a label's reference answer without counting an operation (the
   in-process answer that served answers must equal). *)
let reference l label ~fp ~check =
  if not (Hashtbl.mem l.entries label) then ignore (add l label ~fp ~check)

let observe l label ~fp ~ok ~check =
  let e = match Hashtbl.find_opt l.entries label with Some e -> e | None -> add l label ~fp ~check in
  if ok && String.equal fp e.fp then e.good <- e.good + 1
  else begin
    if ok then prerr_endline ("perfbench: " ^ label ^ ": answer differs from the first one");
    e.bad <- e.bad + 1
  end

(* Operations that failed before any answer existed. *)
let observe_failure l label msg =
  prerr_endline ("perfbench: " ^ label ^ ": " ^ msg);
  let e =
    match Hashtbl.find_opt l.entries label with
    | Some e -> e
    | None -> add l label ~fp:"" ~check:(fun () -> Error msg)
  in
  e.bad <- e.bad + 1

let verdict e =
  match e.verdict with
  | Some v -> v
  | None ->
    let v = try e.check () with ex -> Error (Printexc.to_string ex) in
    e.verdict <- Some v;
    v

(* Fail a label outright — a cross-answer property it broke. *)
let refute l label msg =
  match Hashtbl.find_opt l.entries label with
  | Some e -> e.verdict <- Some (Error msg)
  | None -> ()

(* Run every pending check; returns (attempted, failed). *)
let finish l =
  List.fold_left
    (fun (attempted, failed) label ->
      let e = Hashtbl.find l.entries label in
      let failed_here =
        match verdict e with
        | Ok () -> e.bad
        | Error msg ->
          if e.good > 0 then prerr_endline ("perfbench: " ^ label ^ ": " ^ msg);
          e.good + e.bad
      in
      (attempted + e.good + e.bad, failed + failed_here))
    (0, 0) (List.rev l.order)
