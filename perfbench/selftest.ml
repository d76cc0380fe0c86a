(* The answer checker must reject tampered answers: one gate moved to a
   slower version past the delay budget, and an altered leakage total.
   Exit status 0 iff every expectation holds. *)

module Library = Standby_cells.Library
module Version = Standby_cells.Version
module Netlist = Standby_netlist.Netlist
module Benchmarks = Standby_circuits.Benchmarks
module Optimizer = Standby_opt.Optimizer
module Assignment = Standby_power.Assignment
module Evaluate = Standby_power.Evaluate

(* The first single-gate option change, in node order, that pushes the
   fresh-STA delay past the budget. *)
let slow_one_gate lib net (a : Assignment.t) ~budget =
  let choices = Array.copy a.Assignment.option_choice in
  let exception Found of Assignment.t in
  try
    Netlist.iter_gates net (fun id kind _ ->
        let options = Library.options lib kind ~state:a.Assignment.gate_state.(id) in
        Array.iteri
          (fun k _ ->
            if k <> choices.(id) then begin
              let saved = choices.(id) in
              choices.(id) <- k;
              let b = Assignment.of_choices lib net ~vector:a.Assignment.input_vector ~choices in
              choices.(id) <- saved;
              if Check.fresh_delay lib net b > budget *. 1.001 then raise (Found b)
            end)
          options);
    None
  with Found b -> Some b

let run () =
  let lib = Library.build Standby_device.Process.default in
  let net = Benchmarks.circuit "c432" in
  let r = Optimizer.run lib net ~penalty:0.05 Optimizer.Heuristic_1 in
  let answer =
    {
      Check.lib;
      net;
      penalty = 0.05;
      budget = r.Optimizer.budget;
      leakage = r.Optimizer.breakdown.Evaluate.total;
      assignment = Assignment.to_string r.Optimizer.assignment;
    }
  in
  let cache = Check.new_cache () in
  let failures = ref 0 in
  let expect what cond =
    Printf.printf "selftest: %-58s %s\n%!" what (if cond then "ok" else "FAILED");
    if not cond then incr failures
  in
  let ledger = Check.ledger () in
  let submit label (x : Check.answer) =
    Check.observe ledger label ~fp:x.Check.assignment ~ok:true ~check:(fun () -> Check.answer ~cache x)
  in
  expect "untampered heu1 answer on c432 passes" (Check.answer ~cache answer = Ok ());
  submit "untampered" answer;
  (match slow_one_gate lib net r.Optimizer.assignment ~budget:r.Optimizer.budget with
   | None -> expect "a single slower gate can break the budget" false
   | Some b ->
     let slowed =
       {
         answer with
         Check.assignment = Assignment.to_string b;
         leakage = (Evaluate.of_assignment lib net b).Evaluate.total;
       }
     in
     expect "one gate slowed past the budget is rejected"
       (match Check.answer ~cache slowed with Error _ -> true | Ok () -> false);
     submit "slowed-gate" slowed);
  let altered = { answer with Check.leakage = answer.Check.leakage *. 1.0001 } in
  expect "a leakage total altered by 0.01% is rejected"
    (match Check.answer ~cache altered with Error _ -> true | Ok () -> false);
  submit "altered-leakage" altered;
  let attempted, failed = Check.finish ledger in
  expect "the ledger counts both tampered answers as failed" (attempted = 3 && failed = 2);
  let packed = Evaluate.random_vector_average ~vectors:2000 ~seed:5 lib net in
  expect "packed random average agrees with the scalar oracle"
    (Check.random_average ~vectors:2000 ~seed:5 lib net packed = Ok ());
  expect "a packed average off by 1e-6 is rejected"
    (Check.random_average ~vectors:2000 ~seed:5 lib net
       { packed with Evaluate.total = packed.Evaluate.total *. (1.0 +. 1e-6) }
    <> Ok ());
  if !failures = 0 then 0 else 1
