(** HTTP/1.1 request parsing and response formatting for {!Monitor}.

    Pure string functions, unit-testable without a socket.  The server
    only answers [GET] on a handful of fixed paths, so anything outside
    that envelope maps to a precise error status: 400 malformed request
    line, 405 non-GET method, 414 oversized target, 505 unsupported
    protocol version. *)

type request = {
  meth : string;
  path : string;  (** target with any [?query] stripped *)
  version : string;
}

val parse_request : string -> (request, int) result
(** Parse the header section (everything before the blank line);
    [Error status] carries the HTTP status to answer with. *)

val reason : int -> string
(** Canonical reason phrase for the status codes the server emits. *)

val response : ?headers:(string * string) list -> status:int -> string -> string
(** Full response bytes with [Content-Length] and [Connection: close]. *)

val error_response : int -> string
(** Plain-text error body matching the status line. *)

val sse_header : string
(** Response head opening a [text/event-stream]; the connection stays
    open and frames follow. *)

val sse_frame : event:string -> data:string -> string
(** One SSE frame ([event:] + [data:] lines + blank terminator);
    multi-line data is split into one [data:] field per line. *)
