(* Epoch pins: the safety property the whole latch-free read path leans
   on.  The garbage collector keeps every version a live pin can see, so
   the one number it reads — {!Vnl_util.Epoch.min_pinned}, the horizon —
   must never rise above a live pin.

   The QCheck property drives random pin / unpin / advance histories
   against a model and asserts, after every step, that [min_pinned] equals
   the model's horizon: the minimum over live pins, or the current epoch
   when none are live.  Unit tests nail the store-then-revalidate pin
   protocol (the begin/advance race) and slot growth; a domain race checks
   that no pin lands on a future epoch and that the horizon returns to the
   current epoch once everything is unpinned. *)

module Epoch = Vnl_util.Epoch
module Xorshift = Vnl_util.Xorshift
module Domain_pool = Vnl_util.Domain_pool

let check = Alcotest.check

(* --- model-checked random histories ----------------------------------- *)

type model_pin = { slot : Epoch.slot; pinned : int }

let run_history seed =
  let rng = Xorshift.create seed in
  let t = Epoch.create ~slots:2 () in
  let epoch = ref 0 in
  (* Live pins, in no particular order: unpin picks any of them. *)
  let pins = ref [] in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  for step = 1 to 60 do
    (match Xorshift.int rng 3 with
    | 0 ->
      incr epoch;
      Epoch.advance t !epoch
    | 1 ->
      let slot, pinned = Epoch.pin t in
      if pinned <> !epoch then
        fail "step %d: pin observed epoch %d, current is %d" step pinned !epoch;
      pins := { slot; pinned } :: !pins
    | _ -> (
      match !pins with
      | [] -> ()
      | _ :: _ ->
        let k = Xorshift.int rng (List.length !pins) in
        Epoch.unpin (List.nth !pins k).slot;
        pins := List.filteri (fun i _ -> i <> k) !pins));
    let model = List.fold_left (fun acc p -> min acc p.pinned) !epoch !pins in
    let got = Epoch.min_pinned t in
    if got <> model then fail "step %d: min_pinned %d, model says %d" step got model
  done;
  List.rev !failures

let qcheck_min_pinned_model =
  QCheck.Test.make ~name:"epoch min_pinned matches the pin model" ~count:200
    (QCheck.make QCheck.Gen.(int_range 1 1_000_000) ~print:string_of_int)
    (fun seed ->
      match run_history seed with
      | [] -> true
      | m :: _ -> QCheck.Test.fail_report m)

(* --- the begin/advance race -------------------------------------------- *)

(* Simulate a refresh committing between a session's epoch read and its pin
   becoming visible: [current] returns the old epoch exactly once, then the
   new one.  The store-then-revalidate protocol must republish the pin at
   the new epoch — the naive read-then-store design pins 7 here, and GC at
   horizon 8 would free history the session still needs. *)
let test_pin_revalidates_after_advance () =
  let t = Epoch.create ~initial:7 () in
  let reads = ref 0 in
  let current () =
    incr reads;
    if !reads <= 1 then 7 else 8
  in
  let slot, pinned = Epoch.pin ~current t in
  check Alcotest.int "pin landed on the post-advance epoch" 8 pinned;
  check (Alcotest.option Alcotest.int) "slot publishes the same epoch" (Some 8)
    (Epoch.pinned_epoch slot);
  Epoch.unpin slot;
  check (Alcotest.option Alcotest.int) "unpinned slot reads as free" None
    (Epoch.pinned_epoch slot)

let test_min_pinned_and_growth () =
  let t = Epoch.create ~initial:100 ~slots:2 () in
  (* Exceed the initial slot capacity: the array must grow while earlier
     pins stay visible through the shared cells. *)
  let pins = List.init 20 (fun _ -> fst (Epoch.pin t)) in
  check Alcotest.int "all pins bound the horizon" 100 (Epoch.min_pinned t);
  Epoch.advance t 105;
  check Alcotest.int "old pins still bound the horizon" 100 (Epoch.min_pinned t);
  List.iter Epoch.unpin pins;
  check Alcotest.int "horizon is the epoch once all pins drop" 105 (Epoch.min_pinned t);
  Epoch.advance t 103;
  check Alcotest.int "advance is monotone" 105 (Epoch.current t)

(* --- real domain races ------------------------------------------------- *)

(* Pinners cycle pin/unpin while one domain advances the epoch and reads
   the horizon.  Two invariants survive any schedule: no pin ever lands on
   an epoch the publisher has not reached, and the horizon never exceeds
   the current epoch.  Once every pinner is done, the horizon is the
   current epoch again — a leaked pin would hold it back for good. *)
let test_domain_race_pin_vs_advance () =
  let t = Epoch.create () in
  let published = 400 in
  ignore
    (Domain_pool.run ~domains:4 (fun ~start rank ->
         start ();
         if rank = 0 then
           for e = 1 to published do
             Epoch.advance t e;
             if Epoch.min_pinned t > Epoch.current t then
               failwith "horizon above the current epoch";
             Domain.cpu_relax ()
           done
         else begin
           let rng = Xorshift.create (42 + rank) in
           for _ = 1 to 300 do
             let slot, pinned = Epoch.pin t in
             if pinned > Epoch.current t then failwith "pinned a future epoch";
             if Xorshift.chance rng 0.5 then Domain.cpu_relax ();
             Epoch.unpin slot
           done
         end));
  check Alcotest.int "every advance published" published (Epoch.current t);
  check Alcotest.int "horizon is the current epoch once all pins drop"
    (Epoch.current t) (Epoch.min_pinned t)

let suite =
  [
    Alcotest.test_case "pin revalidates across a concurrent advance" `Quick
      test_pin_revalidates_after_advance;
    Alcotest.test_case "min_pinned across slot growth; monotone advance" `Quick
      test_min_pinned_and_growth;
    Alcotest.test_case "domain race: pin never in the future" `Quick
      test_domain_race_pin_vs_advance;
    QCheck_alcotest.to_alcotest qcheck_min_pinned_model;
  ]
