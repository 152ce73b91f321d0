(* The tap path runs from (simulated) kernel context, so it must be cheap:
   events are pushed onto the ring as typed values — no Printf, no string
   building — and all encoding happens at drain time in the userspace
   record task.  Drained bytes go either to an in-memory buffer or,
   streaming, to an [out_channel], so the recorder's live heap stays
   bounded no matter how long the run. *)

type event =
  | Ev_call of { tid : int; call : Message.call; reply : Message.reply }
  | Ev_lock of Lock.event

type sink =
  | Memory of Buffer.t
  | Channel of out_channel

type t = {
  ring : event Ds.Ring_buffer.t;
  sink : sink;
  scratch : Buffer.t; (* per-drain staging for Channel sinks; reused, so bounded *)
  frame : Buffer.t; (* per-event staging for length prefixes; reused *)
  mutable events : int;
  mutable closed : bool;
}

(* Log header; the final byte is the format version. *)
let magic = "ENOKIREC\x01"

let default_capacity = 65536

let mk ~capacity ~sink =
  {
    ring = Ds.Ring_buffer.create ~capacity;
    sink;
    scratch = Buffer.create 4096;
    frame = Buffer.create 256;
    events = 0;
    closed = false;
  }

let create ?(capacity = default_capacity) () = mk ~capacity ~sink:(Memory (Buffer.create 4096))

let create_file ~path ?(capacity = default_capacity) () =
  let oc = open_out_bin path in
  output_string oc magic;
  mk ~capacity ~sink:(Channel oc)

let tap_call t ~tid call reply = ignore (Ds.Ring_buffer.push t.ring (Ev_call { tid; call; reply }))

let tap_lock t (ev : Lock.event) = ignore (Ds.Ring_buffer.push t.ring (Ev_lock ev))

let dropped t = Ds.Ring_buffer.dropped t.ring

(* frame = varint payload length, then payload (kind byte + fields) *)
let encode t buf ev =
  Buffer.clear t.frame;
  (match ev with
  | Ev_call { tid; call; reply } ->
    Wire.put_byte t.frame 0x01;
    Wire.put_uint t.frame tid;
    Message.put_call t.frame call;
    Message.put_reply t.frame reply
  | Ev_lock { lock_id; op; tid } ->
    Wire.put_byte t.frame 0x02;
    Wire.put_uint t.frame tid;
    Wire.put_byte t.frame (Lock.op_byte op);
    Wire.put_uint t.frame lock_id);
  Wire.put_uint buf (Buffer.length t.frame);
  Buffer.add_buffer buf t.frame

let drain t =
  if not t.closed then
    match Ds.Ring_buffer.drain t.ring with
    | [] -> ()
    | evs ->
      let buf =
        match t.sink with
        | Memory b -> b
        | Channel _ ->
          Buffer.clear t.scratch;
          t.scratch
      in
      List.iter
        (fun ev ->
          encode t buf ev;
          t.events <- t.events + 1)
        evs;
      (match t.sink with Memory _ -> () | Channel oc -> Buffer.output_buffer oc t.scratch)

let length t =
  drain t;
  t.events

(* The trailer carries the event and drop counts; it sits at the end so
   entry positions (frame indices) are stable whether or not the run
   completed. *)
let add_trailer t buf =
  Buffer.clear t.frame;
  Wire.put_byte t.frame 0x7f;
  Wire.put_uint t.frame t.events;
  Wire.put_uint t.frame (dropped t);
  Wire.put_uint buf (Buffer.length t.frame);
  Buffer.add_buffer buf t.frame

let close t =
  if not t.closed then begin
    drain t;
    (match t.sink with
    | Memory _ -> () (* trailer is composed by [contents]/[save] *)
    | Channel oc ->
      Buffer.clear t.scratch;
      add_trailer t t.scratch;
      Buffer.output_buffer oc t.scratch;
      close_out oc);
    t.closed <- true
  end

let contents t =
  drain t;
  match t.sink with
  | Channel _ -> invalid_arg "Record.contents: file-backed recorder (close it and use load_file)"
  | Memory b ->
    (* compose without mutating [b], so repeated calls are stable *)
    let out = Buffer.create (Buffer.length b + 64) in
    Buffer.add_string out magic;
    Buffer.add_buffer out b;
    add_trailer t out;
    Buffer.contents out

let save t ~path =
  let data = contents t in
  let oc = open_out_bin path in
  Fun.protect (fun () -> output_string oc data) ~finally:(fun () -> close_out oc)

let load_file ~path =
  let ic = open_in_bin path in
  Fun.protect
    (fun () -> really_input_string ic (in_channel_length ic))
    ~finally:(fun () -> close_in ic)
