type Kernsim.Task.hint += Opaque of string

type codec = {
  name : string;
  enc : Kernsim.Task.hint -> string option;
  dec : string -> Kernsim.Task.hint;
}

let codecs : codec list ref = ref []

let register ~name ~encode ~decode =
  codecs := { name; enc = encode; dec = decode } :: !codecs

(* The (codec name, raw payload) pair: what the record log stores
   length-prefixed and escaping-free. *)
let encode_parts hint =
  let rec try_codecs = function
    | [] -> (
      match hint with
      | Opaque s -> ("opaque", s)
      | _ -> ("opaque", "?"))
    | c :: rest -> (
      match c.enc hint with
      | Some payload -> (c.name, payload)
      | None -> try_codecs rest)
  in
  try_codecs !codecs

let decode_parts ~name ~payload =
  let rec find = function
    | [] -> Opaque payload
    | c :: rest -> if c.name = name then c.dec payload else find rest
  in
  find !codecs
