(* Per-connection protocol state machine; see the .mli for the contract.

   The connection owns at most one reader session (an epoch pin) and a
   small table of materialized cursors.  Every request handler is wrapped
   so that the only observable outcomes are response frames — exceptions
   from the SQL layer become [Query_failed], session expiry becomes the
   documented [Session_expired] error, and decoder corruption becomes one
   [Bad_frame] error followed by close.  Releasing the epoch pin eagerly
   (at expiry, not at disconnect) is what keeps hundreds of thousands of
   churning remote sessions from ever holding the GC horizon back. *)

module Twovnl = Vnl_core.Twovnl
module Value = Vnl_relation.Value
module Obs = Vnl_obs.Obs

let m_requests = Obs.Registry.counter "net.requests"

let m_queries = Obs.Registry.counter "net.queries"

let m_fetches = Obs.Registry.counter "net.fetches"

let m_protocol_errors = Obs.Registry.counter "net.protocol_errors"

let m_query_errors = Obs.Registry.counter "net.query_errors"

let m_expiry_pushes = Obs.Registry.counter "net.expiry_pushes"

let m_expired_rejects = Obs.Registry.counter "net.expired_rejects"

(* Wire-request service time (decode to response enqueued), in ms. *)
let m_request_ms =
  Obs.Registry.histogram
    ~buckets:[| 0.01; 0.05; 0.1; 0.5; 1.0; 5.0; 10.0; 50.0; 100.0; 500.0 |]
    "net.request_ms"

type config = { fetch_chunk : int; max_cursors : int; max_output : int }

let default_config = { fetch_chunk = 256; max_cursors = 16; max_output = 1 lsl 22 }

type cursor = { columns : string list; mutable remaining : Value.t list list }

type t = {
  vnl : Twovnl.t;
  config : config;
  dec : Wire.request Wire.Decoder.t;
  (* Output byte queue: grow-and-compact, drained by the transport. *)
  mutable out : bytes;
  mutable out_r : int;
  mutable out_w : int;
  mutable session : Twovnl.Session.s option;
  mutable expired : bool;  (** Session present but expired (pin released). *)
  cursors : (int, cursor) Hashtbl.t;
  mutable next_cursor : int;
  mutable want_close : bool;
  mutable closed : bool;
}

let create ?(config = default_config) vnl =
  {
    vnl;
    config;
    dec = Wire.Decoder.request ();
    out = Bytes.create 4096;
    out_r = 0;
    out_w = 0;
    session = None;
    expired = false;
    cursors = Hashtbl.create 8;
    next_cursor = 1;
    want_close = false;
    closed = false;
  }

(* ---------- output queue ---------- *)

let pending_output t = t.out_w - t.out_r

let push_bytes t b =
  let len = Bytes.length b in
  if Bytes.length t.out - t.out_w < len then begin
    let used = pending_output t in
    if t.out_r > 0 then begin
      Bytes.blit t.out t.out_r t.out 0 used;
      t.out_r <- 0;
      t.out_w <- used
    end;
    if Bytes.length t.out - t.out_w < len then begin
      let cap = ref (Bytes.length t.out * 2) in
      while !cap < used + len do
        cap := !cap * 2
      done;
      let nb = Bytes.create !cap in
      Bytes.blit t.out 0 nb 0 used;
      t.out <- nb
    end
  end;
  Bytes.blit b 0 t.out t.out_w len;
  t.out_w <- t.out_w + len

let peek_output t =
  if t.out_w = t.out_r then None else Some (t.out, t.out_r, t.out_w - t.out_r)

let consume_output t n =
  if n < 0 || n > pending_output t then invalid_arg "Conn.consume_output";
  t.out_r <- t.out_r + n;
  if t.out_r = t.out_w then begin
    t.out_r <- 0;
    t.out_w <- 0
  end

let overflowed t = pending_output t > t.config.max_output

let respond t resp = push_bytes t (Wire.encode_response resp)

(* ---------- session lifecycle ---------- *)

let drop_cursors t = Hashtbl.reset t.cursors

let end_session t =
  (match t.session with Some s -> Twovnl.Session.end_ t.vnl s | None -> ());
  t.session <- None;
  t.expired <- false

(* The session just expired: release the pin immediately (GC must not wait
   for the client to notice), drop its cursors, and remember the expired
   state so later requests get the documented error.  [push] distinguishes
   the unsolicited notification from an error reply already on its way. *)
let expire_session t s ~push ~current_vn =
  if push then begin
    Obs.Counter.record m_expiry_pushes 1;
    respond t (Wire.Expired { session_vn = Twovnl.Session.vn s; current_vn })
  end;
  Twovnl.Session.end_ t.vnl s;
  drop_cursors t;
  t.expired <- true

let close t =
  if not t.closed then begin
    t.closed <- true;
    end_session t;
    drop_cursors t
  end

let want_close t = t.want_close

let closed t = t.closed

let session_vn t =
  match t.session with
  | Some s when not t.expired -> Some (Twovnl.Session.vn s)
  | Some _ | None -> None

let on_version_change t =
  if not t.closed then
    match t.session with
    | Some s when not t.expired -> (
      match Twovnl.Session.validity t.vnl s with
      | `Valid _ -> ()
      | `Expired (_, current_vn) -> expire_session t s ~push:true ~current_vn)
    | Some _ | None -> ()

(* ---------- request handlers ---------- *)

let err t code message =
  (* Error frames must always encode: cap the message well under the
     u16 string bound (SQL errors can quote arbitrarily long input). *)
  let message =
    if String.length message > 300 then String.sub message 0 297 ^ "..." else message
  in
  (match code with
  | Wire.Session_expired -> Obs.Counter.record m_expired_rejects 1
  | Wire.Query_failed -> Obs.Counter.record m_query_errors 1
  | _ -> ());
  respond t (Wire.Error_ { code; message })

let handle_hello t name =
  end_session t;
  drop_cursors t;
  let s = Twovnl.Session.begin_ t.vnl in
  t.session <- Some s;
  ignore name;
  respond t
    (Wire.Hello_ok
       {
         session_id = Twovnl.Session.id s;
         session_vn = Twovnl.Session.vn s;
         catalog_gen = Twovnl.Session.generation t.vnl s;
       })

let with_session t k =
  match t.session with
  | None -> err t Wire.No_session "no session: send Hello first"
  | Some _ when t.expired ->
    err t Wire.Session_expired "session expired: begin a new one with Hello"
  | Some s -> k s

let handle_query t sql =
  with_session t @@ fun s ->
  if Hashtbl.length t.cursors >= t.config.max_cursors then
    err t Wire.Too_many_cursors
      (Printf.sprintf "cursor limit %d reached" t.config.max_cursors)
  else begin
    Obs.Counter.record m_queries 1;
    match Twovnl.Session.query t.vnl s sql with
    | { Vnl_query.Plan.columns; rows } ->
      let cursor = t.next_cursor in
      t.next_cursor <- t.next_cursor + 1;
      Hashtbl.replace t.cursors cursor { columns; remaining = rows };
      respond t (Wire.Result { cursor; columns; total_rows = List.length rows })
    | exception Twovnl.Expired { current_vn; _ } ->
      (* Raced a maintenance publish: same transition as the push path,
         but the reply slot carries the error instead of a notification. *)
      expire_session t s ~push:false ~current_vn;
      err t Wire.Session_expired "session expired: begin a new one with Hello"
    | exception
        (( Vnl_sql.Parser.Parse_error _ | Vnl_sql.Lexer.Lex_error _
         | Vnl_query.Plan.Query_error _ | Vnl_query.Eval.Eval_error _
         | Failure _ | Invalid_argument _ ) as e)
      ->
      let msg =
        match e with
        | Vnl_sql.Parser.Parse_error m
        | Vnl_query.Plan.Query_error m
        | Vnl_query.Eval.Eval_error m
        | Failure m
        | Invalid_argument m ->
          m
        | Vnl_sql.Lexer.Lex_error (m, pos) -> Printf.sprintf "%s (at %d)" m pos
        | _ -> "query failed"
      in
      err t Wire.Query_failed msg
  end

(* Pack up to [want] rows into one frame without exceeding the payload
   bound: a chunk stops early at a row that would overflow the remaining
   byte budget, and that row leads the next fetch.  A row no frame can
   carry at all ([Wire.row_encodable] false) therefore always surfaces as
   an empty chunk with the offender at the head. *)
let take_chunk want budget xs =
  let rec go n budget acc rest =
    match rest with
    | row :: tl when n > 0 ->
      let sz = Wire.row_size row in
      if sz > budget || not (Wire.row_encodable row) then (List.rev acc, rest)
      else go (n - 1) (budget - sz) (row :: acc) tl
    | _ -> (List.rev acc, rest)
  in
  go (max 1 want) budget [] xs

let handle_fetch t cursor max_rows =
  with_session t @@ fun _s ->
  match Hashtbl.find_opt t.cursors cursor with
  | None -> err t Wire.Unknown_cursor (Printf.sprintf "no cursor %d" cursor)
  | Some c ->
    Obs.Counter.record m_fetches 1;
    let want =
      if max_rows <= 0 then t.config.fetch_chunk else min max_rows t.config.fetch_chunk
    in
    let budget = Wire.max_frame - Wire.rows_overhead in
    match take_chunk want budget c.remaining with
    | [], _ :: _ ->
      (* The head row cannot be encoded in any frame (an over-long string
         or a row wider than a whole frame): the cursor can never make
         progress past it, so drop it with the documented error. *)
      Hashtbl.remove t.cursors cursor;
      err t Wire.Query_failed
        (Printf.sprintf "cursor %d: row too large for a wire frame" cursor)
    | chunk, rest ->
      c.remaining <- rest;
      let last = rest = [] in
      if last then Hashtbl.remove t.cursors cursor;
      respond t (Wire.Rows { cursor; rows = chunk; last })

let handle_close_cursor t cursor =
  if Hashtbl.mem t.cursors cursor then begin
    Hashtbl.remove t.cursors cursor;
    respond t Wire.Ok_
  end
  else err t Wire.Unknown_cursor (Printf.sprintf "no cursor %d" cursor)

let handle_request t req =
  Obs.Counter.record m_requests 1;
  try
    match req with
    | Wire.Hello name -> handle_hello t name
    | Wire.Query sql -> handle_query t sql
    | Wire.Fetch { cursor; max_rows } -> handle_fetch t cursor max_rows
    | Wire.Close_cursor cursor -> handle_close_cursor t cursor
    | Wire.Bye ->
      respond t Wire.Ok_;
      t.want_close <- true
  with
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | e ->
    (* Residual failure — e.g. a response that refused to encode.  The
       reply stream may be mid-frame-build but never mid-frame-send
       ([respond] queues whole frames), so one error frame is still
       well-formed; after it the connection closes because cursor state
       may no longer match what the client saw.  This backstop is what
       keeps the no-exception-escapes contract of [on_input] true even
       for encode paths the handlers above did not anticipate. *)
    err t Wire.Query_failed ("internal error: " ^ Printexc.to_string e);
    t.want_close <- true

(* ---------- input ---------- *)

let on_input t buf off len =
  if not (t.closed || t.want_close) then begin
    Wire.Decoder.feed t.dec buf off len;
    let continue = ref true in
    while !continue do
      match Wire.Decoder.next t.dec with
      | `Await -> continue := false
      | `Msg req ->
        if !Obs.enabled then begin
          let t0 = Unix.gettimeofday () in
          handle_request t req;
          Obs.Histogram.observe m_request_ms ((Unix.gettimeofday () -. t0) *. 1000.0)
        end
        else handle_request t req;
        if t.want_close then continue := false
      | `Corrupt msg ->
        (* The stream is desynchronized: one diagnostic error frame, then
           close.  The decoder stays corrupt, so this arm runs at most
           once per connection. *)
        Obs.Counter.record m_protocol_errors 1;
        err t Wire.Bad_frame msg;
        t.want_close <- true;
        continue := false
    done
  end
