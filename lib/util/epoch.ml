(* Epoch-based reclamation for the latch-free reader path.

   The global epoch is the warehouse's published version number; it only
   moves forward.  A reader {e pins} the epoch for the lifetime of its
   session by writing it into a private slot; the garbage collector
   computes the {e horizon} — the minimum pinned epoch — and may discard
   only versions no pin can still see.  Pin, unpin, and the horizon fold
   are all lock-free: a slot is one [Atomic.t], acquired by CAS from a
   shared array that grows by publishing a copy.

   The pin protocol closes the classic begin/advance race.  A naive
   "read epoch, then store it" pin can be overtaken: the epoch advances
   and the collector folds over the slots {e between} the read and the
   store, misses the pin, and frees state the new reader still needs.
   [pin] therefore stores its candidate and then re-reads the epoch,
   retrying until the stored value is the current epoch at some point
   after the store.  Atomics are sequentially consistent, so when the
   re-read confirms the candidate, any advance-then-fold that follows
   must see the pin; and when it does not confirm, the pin republishes
   the newer epoch before the session uses it. *)

type slot = int Atomic.t

(* A free slot holds [available]; a pinned slot holds the epoch.  There is
   no "owned but unpinned" state: acquisition and pinning are one CAS. *)
let available = max_int

type t = { epoch : int Atomic.t; slots : slot array Atomic.t }

let create ?(initial = 0) ?(slots = 16) () =
  if slots < 1 then invalid_arg "Epoch.create: need at least one slot";
  {
    epoch = Atomic.make initial;
    slots = Atomic.make (Array.init slots (fun _ -> Atomic.make available));
  }

let current t = Atomic.get t.epoch

let advance t e =
  (* Monotone publication; concurrent advances keep the maximum. *)
  let rec go () =
    let cur = Atomic.get t.epoch in
    if e > cur && not (Atomic.compare_and_set t.epoch cur e) then go ()
  in
  go ()

(* Double the slot array, sharing the existing cells so pins and unpins
   through either array stay visible through both.  Losing a CAS race just
   means another domain already grew it. *)
let grow t old =
  let bigger =
    Array.init (2 * Array.length old) (fun i ->
        if i < Array.length old then old.(i) else Atomic.make available)
  in
  ignore (Atomic.compare_and_set t.slots old bigger)

let rec acquire t candidate =
  let slots = Atomic.get t.slots in
  let n = Array.length slots in
  let rec scan i =
    if i >= n then begin
      grow t slots;
      acquire t candidate
    end
    else if
      Atomic.get slots.(i) = available
      && Atomic.compare_and_set slots.(i) available candidate
    then slots.(i)
    else scan (i + 1)
  in
  scan 0

let pin ?current:current_override t =
  let read () =
    match current_override with Some f -> f () | None -> Atomic.get t.epoch
  in
  let slot = acquire t (read ()) in
  let rec confirm () =
    let stored = Atomic.get slot in
    let now = read () in
    if now <> stored then begin
      Atomic.set slot now;
      confirm ()
    end
    else stored
  in
  let pinned = confirm () in
  (slot, pinned)

let unpin slot = Atomic.set slot available

let pinned_epoch slot =
  let v = Atomic.get slot in
  if v = available then None else Some v

let min_pinned t =
  let slots = Atomic.get t.slots in
  Array.fold_left (fun acc s -> min acc (Atomic.get s)) (Atomic.get t.epoch) slots
