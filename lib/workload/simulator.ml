open Effect
open Effect.Deep

type _ Effect.t += Delay : int -> unit Effect.t
type _ Effect.t += Await : (unit -> bool) -> unit Effect.t

module Events = Map.Make (struct
  type t = int * int  (* time, sequence *)

  let compare = compare
end)

type blocked = { name : string; pred : unit -> bool; resume : unit -> unit }

type t = {
  mutable now : int;
  mutable seq : int;
  mutable events : (unit -> unit) Events.t;
  mutable blocked : blocked list;
  mutable finished : int;
  mutable running : bool;
}

exception Stuck of string list

let create () =
  { now = 0; seq = 0; events = Events.empty; blocked = []; finished = 0; running = false }

let now t = t.now

let schedule t ~at thunk =
  let at = max at t.now in
  t.seq <- t.seq + 1;
  t.events <- Events.add (at, t.seq) thunk t.events

let delay d =
  if d < 0 then invalid_arg "Simulator.delay: negative";
  perform (Delay d)

let await pred = perform (Await pred)

(* Run one process body under the effect handler. *)
let exec t name body =
  match_with body ()
    {
      retc = (fun () -> t.finished <- t.finished + 1);
      exnc = (fun e -> raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Delay d ->
            Some
              (fun (k : (a, unit) continuation) ->
                schedule t ~at:(t.now + d) (fun () -> continue k ()))
          | Await pred ->
            Some
              (fun (k : (a, unit) continuation) ->
                if pred () then schedule t ~at:t.now (fun () -> continue k ())
                else
                  t.blocked <- { name; pred; resume = (fun () -> continue k ()) } :: t.blocked)
          | _ -> None);
    }

let spawn t ?at ~name body =
  let at = match at with Some at -> at | None -> t.now in
  schedule t ~at (fun () -> exec t name body)

(* Move woken blocked processes into the event queue. *)
let promote t =
  let ready, still = List.partition (fun b -> b.pred ()) t.blocked in
  t.blocked <- still;
  List.iter (fun b -> schedule t ~at:t.now b.resume) (List.rev ready)

let run ?until t =
  t.running <- true;
  let horizon = match until with Some u -> u | None -> max_int in
  let rec loop () =
    promote t;
    match Events.min_binding_opt t.events with
    | None ->
      if t.blocked <> [] && until = None then
        raise (Stuck (List.map (fun b -> b.name) t.blocked))
    | Some ((at, _seq), _) when at > horizon -> ()
    | Some (((at, _) as key), thunk) ->
      t.events <- Events.remove key t.events;
      t.now <- at;
      thunk ();
      loop ()
  in
  loop ();
  t.running <- false
