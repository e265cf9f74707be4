(* service-closed and service-wal: seeded tuning clients in a closed
   loop through the sharded service.

   Every client registers the paper's two-parameter spec, then
   alternates between running its assigned trial (a seeded bowl, so the
   search is reproducible) and reporting it, with an occasional
   idempotent query and one transient failed report, until the server
   says [done]; it then deregisters.  A client sends its next message
   only after the reply to its previous one (closed loop).  The benchmark
   drains the ready clients in fixed-size batches through
   [Service.handle_batch_env], as a server draining its socket would.

   service-closed runs 10k clients with no journal: dispatch,
   admission, the per-client servers and simplex steps do all the work.
   service-wal runs 1k clients with every shard journaled (fsync before
   apply) and, once half the clients have finished, a planned restart:
   detach the journals, [Service.recover], and carry on with the
   recovered service.

   Checks, outside the timed window: every client's conversation
   replayed through a dedicated [Server] must give byte-identical
   replies (across the restart too); every client reaches [done] and
   [bye]; no session is left; recovery drops nothing. *)

open Harmony
module Service = Harmony_service.Service
module Admission = Harmony_service.Admission
module Pool = Harmony_parallel.Pool
module Rng = Harmony_numerics.Rng
module Persist = Harmony_persist.Persist
module Telemetry = Harmony_telemetry.Telemetry

type shape = { clients : int; shards : int; batch : int; journaled : bool }

let domains = 2

let paper_spec = "{ harmonyBundle B { int {1 8 1} }}\n{ harmonyBundle C { int {1 9-$B 1} }}"
let options = { Simplex.default_options with Simplex.max_evaluations = 12 }

(* Closed-loop defaults police nothing: the edge runs, admits, and
   counts, but never sheds. *)
let admission = { Admission.default_config with Admission.max_inflight = 0; rate = 0; burst = 0 }

type phase = Start | Tuning | Finishing | Finished

type client = {
  id : string;
  rng : Rng.t;
  direction : Server.direction;
  peak_b : float;
  peak_c : float;
  mutable phase : phase;
  mutable last_assign : (string * int) list option;
  mutable fail_budget : int;
  mutable pending : Service.message option;
  mutable log : (Server.message * string) list;  (* acknowledged, newest first *)
  mutable done_seen : bool;
  mutable bye : bool;
}

let fleet ~seed n =
  let master = Rng.create seed in
  Array.init n (fun i ->
      let rng = Rng.split master in
      let direction = if Rng.bool rng then Server.Maximize else Server.Minimize in
      let peak_b = float_of_int (Rng.int_in rng 1 8) in
      let peak_c = float_of_int (Rng.int_in rng 1 4) in
      {
        id = Printf.sprintf "c%d" i;
        rng;
        direction;
        peak_b;
        peak_c;
        phase = Start;
        last_assign = None;
        fail_budget = 1;
        pending = None;
        log = [];
        done_seen = false;
        bye = false;
      })

(* The trial a client runs: a pure function of client and assignment. *)
let respond c assignment =
  let v name = float_of_int (Option.value ~default:0 (List.assoc_opt name assignment)) in
  let db = v "B" -. c.peak_b and dc = v "C" -. c.peak_c in
  let bowl = (db *. db) +. (dc *. dc) in
  match c.direction with Server.Maximize -> 100.0 -. bowl | Server.Minimize -> bowl

let next_message c =
  match c.pending with
  | Some m -> m
  | None ->
      let m =
        match c.phase with
        | Finishing | Finished -> Service.Deregister { client = c.id }
        | Start ->
            c.phase <- Tuning;
            Service.Client { client = c.id; payload = Server.Register { spec = paper_spec; direction = c.direction } }
        | Tuning ->
            let payload =
              match c.last_assign with
              | None -> Server.Query
              | Some a ->
                  let roll = Rng.int c.rng 20 in
                  if roll = 0 then Server.Query
                  else if roll = 1 && c.fail_budget > 0 then begin
                    c.fail_budget <- c.fail_budget - 1;
                    Server.Report_failed
                  end
                  else Server.Report (respond c a)
            in
            Service.Client { client = c.id; payload }
      in
      c.pending <- Some m;
      m

(* Advance a client on its reply; false when the conversation broke. *)
let on_reply c reply =
  match (c.pending, reply) with
  | Some (Service.Client { payload; _ }), Service.Client_reply { client; reply = r } when String.equal client c.id -> (
      match r with
      | Server.Rejected m when Admission.is_rejection_text m -> true (* re-offer the same message *)
      | Server.Assign a ->
          c.log <- (payload, Server.reply_to_string r) :: c.log;
          c.last_assign <- Some a;
          c.pending <- None;
          true
      | Server.Done _ ->
          c.log <- (payload, Server.reply_to_string r) :: c.log;
          c.done_seen <- true;
          c.phase <- Finishing;
          c.pending <- None;
          true
      | Server.Rejected _ | Server.Stats _ ->
          c.log <- (payload, Server.reply_to_string r) :: c.log;
          false)
  | Some (Service.Deregister _), Service.Deregistered { client } when String.equal client c.id ->
      c.bye <- true;
      c.phase <- Finished;
      c.pending <- None;
      true
  | ( (None | Some (Service.Client _ | Service.Deregister _ | Service.Service_metrics | Service.Dump_flight)),
      ( Service.Client_reply _ | Service.Deregistered _ | Service.Service_stats _ | Service.Flight_dump _
      | Service.Service_error _ ) ) ->
      false

(* Per-layer accumulators, filled by traced units only. *)
type layers = {
  mutable batches : int;
  mutable msgs : int;
  mutable rejected : int;
  mutable batch_wall : float;
  fsync_us : Probe.samples;
  bytes : int Atomic.t;
  resets : int Atomic.t;
  mutable replayed : int;
  mutable dropped : int;
}

(* The journal sink as seen from outside: bytes written, each fsync
   timed (on whichever domain runs the shard), compactions counted. *)
let observed_sink l ~shard:_ (s : Persist.sink) =
  {
    s with
    Persist.write =
      (fun b ->
        ignore (Atomic.fetch_and_add l.bytes (String.length b));
        s.Persist.write b);
    sync =
      (fun () ->
        let t0 = Probe.now_ns () in
        Probe.span "persist.fsync" s.Persist.sync;
        Probe.add l.fsync_us (float_of_int (Probe.since_ns t0) *. 1e-3));
    reset =
      (fun () ->
        Atomic.incr l.resets;
        s.Persist.reset ());
  }

let run_loop shape ~tiny ~corrupt ~seed ~seconds ~trace ~out =
  let journal = Filename.concat out (Printf.sprintf "wal-%d.journal" seed) in
  let clients = if tiny then max 8 (shape.clients / 100) else shape.clients in
  let l =
    {
      batches = 0;
      msgs = 0;
      rejected = 0;
      batch_wall = 0.0;
      fsync_us = Probe.samples ();
      bytes = Atomic.make 0;
      resets = Atomic.make 0;
      replayed = 0;
      dropped = 0;
    }
  in
  (* Traced units give each shard a metrics-only handle, so the merged
     registry can be read; untraced units run with telemetry off. *)
  let telemetry ~traced =
    if traced then Some (fun _ -> Telemetry.create ~record_events:false ()) else None
  in
  let create ~traced =
    let svc = Service.create ~options ?telemetry:(telemetry ~traced) ~admission ~shards:shape.shards () in
    if shape.journaled then
      Service.attach_journals ?wrap:(if traced then Some (observed_sink l) else None) svc ~journal ();
    svc
  in
  let pool, setup_s =
    Probe.setup ~times:51 ~teardown:Pool.shutdown (fun () ->
        let pool = Pool.create ~domains () in
        let svc = create ~traced:false in
        if shape.journaled then Service.detach_journals svc;
        pool)
  in
  let checks = Probe.check () in
  let msg_ms = Probe.samples () in
  let msgs = ref 0 and service_s = ref 0.0 in
  let recover_walls = ref [] in
  let reference = ref None in
  let handle_us = Probe.samples () in
  let live = ref 0.0 in
  let unit_fn ~mode =
    let traced = mode = Probe.Traced in
    let fleet = fleet ~seed clients in
    let svc = ref (create ~traced) in
    let retired = ref [] in
    let ready = Queue.create () in
    Array.iteri (fun i _ -> Queue.push i ready) fleet;
    let finished = ref 0 and half = ref false and paused = ref 0.0 in
    let unit_msgs = ref 0 and unit_service = ref 0.0 and broken = ref 0 in
    let t_unit = Probe.now_ns () in
    while not (Queue.is_empty ready) do
      let n = min shape.batch (Queue.length ready) in
      let idx = Array.init n (fun _ -> Queue.pop ready) in
      let now = Service.admission_now !svc in
      let envs = Array.to_list (Array.map (fun i -> Service.envelope ~enqueued_at:now (next_message fleet.(i))) idx) in
      let replies, dt =
        Probe.wall (fun () -> Probe.span "service.batch" (fun () -> Service.handle_batch_env ~pool !svc envs))
      in
      unit_service := !unit_service +. dt;
      unit_msgs := !unit_msgs + n;
      if traced then begin
        l.batches <- l.batches + 1;
        l.batch_wall <- l.batch_wall +. dt
      end
      else if mode = Probe.Plain then Probe.add_n msg_ms (dt *. 1e3) n;
      List.iteri
        (fun k reply ->
          let c = fleet.(idx.(k)) in
          if not (on_reply c reply) then begin
            incr broken;
            c.phase <- Finished;
            c.pending <- None
          end;
          if c.phase = Finished then incr finished else Queue.push idx.(k) ready)
        replies;
      if (not !half) && 2 * !finished >= clients then begin
        half := true;
        if mode = Probe.Plain then paused := !paused +. Probe.sample_live live;
        if shape.journaled then begin
          let rc, dt =
            Probe.wall (fun () ->
                Probe.span "recovery" (fun () ->
                    Service.detach_journals !svc;
                    retired := !svc :: !retired;
                    Service.recover ~options ?telemetry:(telemetry ~traced) ~admission
                      ?wrap:(if traced then Some (observed_sink l) else None)
                      ~shards:shape.shards ~journal ()))
          in
          unit_service := !unit_service +. dt;
          if mode <> Probe.Warmup then recover_walls := dt :: !recover_walls;
          Probe.expect checks (rc.Service.dropped = 0) "recovery dropped %d records" rc.Service.dropped;
          if traced then begin
            l.replayed <- l.replayed + rc.Service.replayed;
            l.dropped <- l.dropped + rc.Service.dropped
          end;
          svc := rc.Service.service
        end
      end
    done;
    let dt = Probe.since_s t_unit -. !paused in
    if shape.journaled then Service.detach_journals !svc;
    if traced then begin
      l.msgs <- l.msgs + !unit_msgs;
      List.iter
        (fun s ->
          let tel = Service.merged_telemetry s in
          l.rejected <- l.rejected + Telemetry.counter_value tel Admission.c_rejected)
        (!svc :: !retired)
    end
    else if mode = Probe.Plain then begin
      msgs := !msgs + !unit_msgs;
      service_s := !service_s +. !unit_service
    end;
    (* Outside the timed window. *)
    Probe.expect checks (!broken = 0) "%d conversations broke" !broken;
    Probe.expect checks (Service.sessions !svc = 0) "%d sessions left" (Service.sessions !svc);
    if corrupt then
      (match fleet.(0).log with
      | (m, r) :: rest -> fleet.(0).log <- (m, r ^ " ") :: rest
      | [] -> ());
    (* The first unit is replayed through dedicated servers; every
       unit's reply streams must match that replay byte for byte
       (compared by digest, so the reference stays small). *)
    let stream replies = Digest.string (String.concat "\n" replies) in
    let expected =
      match !reference with
      | Some d -> d
      | None ->
          let d =
            Array.map
              (fun c ->
                let s = Server.create ~options ~reject_reregister:true () in
                List.fold_left
                  (fun acc (m, _) ->
                    let t0 = Probe.now_ns () in
                    let r = Server.handle s m in
                    Probe.add handle_us (float_of_int (Probe.since_ns t0) *. 1e-3);
                    Server.reply_to_string r :: acc)
                  [] (List.rev c.log)
                |> List.rev |> stream)
              fleet
          in
          reference := Some d;
          d
    in
    Array.iteri
      (fun i c ->
        let same = Digest.equal (stream (List.rev_map snd c.log)) expected.(i) in
        Probe.expect checks (c.done_seen && c.bye && same)
          "%s: done=%b bye=%b, replies match the dedicated server: %b" c.id c.done_seen c.bye same)
      fleet;
    dt
  in
  let plain, traced_units = Probe.run_units ~seconds ~min_units:2 ~warmup:true ~trace unit_fn in
  Pool.shutdown pool;
  if shape.journaled then
    List.iter
      (fun s ->
        let p = Service.shard_journal ~journal ~shard:s in
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ p; p ^ ".snapshot" ])
      (List.init shape.shards Fun.id);
  let msgs_f = float_of_int (max 1 l.msgs) in
  let per_unit n = float_of_int n /. float_of_int (max 1 (Array.length traced_units)) in
  let fsync = Probe.to_array l.fsync_us in
  let handle = Probe.to_array handle_us in
  let recover = Array.of_list !recover_walls in
  let msg_ms = Probe.to_array msg_ms in
  {
    Probe.setup_s;
    peak_live_mb = !live;
    plain_units = plain;
    traced_units;
    op_ms = msg_ms;
    ops_per_s = float_of_int !msgs /. !service_s;
    system_share = !service_s /. Probe.sum plain;
    checks;
    layers =
      [
        ("core.server.handle_us_p50", Probe.pct handle 50.0);
        ("core.server.handle_us_p99", Probe.pct handle 99.0);
        ("service.batches", per_unit l.batches);
        ("service.msgs_per_batch", float_of_int l.msgs /. float_of_int (max 1 l.batches));
        ("service.admission.rejected", per_unit l.rejected);
        ("persist.fsyncs_per_msg", float_of_int (Array.length fsync) /. msgs_f);
        ("persist.fsync_us_p50", Probe.pct fsync 50.0);
        ("persist.fsync_us_p99", Probe.pct fsync 99.0);
        ("persist.bytes_per_msg", float_of_int (Atomic.get l.bytes) /. msgs_f);
        ("persist.sync_share", if l.batch_wall > 0.0 then Probe.sum fsync *. 1e-6 /. l.batch_wall else 0.0);
        ("persist.compactions", per_unit (Atomic.get l.resets));
        ("recovery.replayed", per_unit l.replayed);
        ("recovery.dropped", per_unit l.dropped);
        ("recovery.recover_s", Probe.median recover);
      ];
    report =
      [
        ("msgs_per_s", float_of_int !msgs /. !service_s, "1/s");
        ("msg_ms_p50", Probe.pct msg_ms 50.0, "ms");
        ("msg_ms_p99", Probe.pct msg_ms 99.0, "ms");
      ]
      @ if shape.journaled then [ ("recover_s", Probe.median recover, "s") ] else [];
  }

let closed = run_loop { clients = 10_000; shards = 8; batch = 256; journaled = false }
let wal = run_loop { clients = 1_000; shards = 8; batch = 256; journaled = true }
