(** Tokens of the mini-C language (Section 4's subject language).

    Besides ANSI C keywords, the lexer recognizes [$name] as a user type
    qualifier — exactly the "reserved symbol" extension the paper's
    Section 2.5 prototypes for its ANSI C front end. *)

type t =
  (* literals and names *)
  | INT_LIT of int
  | FLOAT_LIT of float
  | CHAR_LIT of char
  | STRING_LIT of string
  | IDENT of Sym.t  (** interned: one shared token per name *)
  | QUALNAME of string  (** [$tainted] etc. — Section 2.5 user qualifiers *)
  (* keywords *)
  | KW_VOID
  | KW_CHAR
  | KW_SHORT
  | KW_INT
  | KW_LONG
  | KW_FLOAT
  | KW_DOUBLE
  | KW_SIGNED
  | KW_UNSIGNED
  | KW_CONST
  | KW_VOLATILE
  | KW_STRUCT
  | KW_UNION
  | KW_ENUM
  | KW_TYPEDEF
  | KW_STATIC
  | KW_EXTERN
  | KW_REGISTER
  | KW_AUTO
  | KW_IF
  | KW_ELSE
  | KW_WHILE
  | KW_DO
  | KW_FOR
  | KW_RETURN
  | KW_BREAK
  | KW_CONTINUE
  | KW_SWITCH
  | KW_CASE
  | KW_DEFAULT
  | KW_GOTO
  | KW_SIZEOF
  (* punctuation *)
  | LPAREN
  | RPAREN
  | LBRACE
  | RBRACE
  | LBRACKET
  | RBRACKET
  | SEMI
  | COMMA
  | COLON
  | QUESTION
  | ELLIPSIS
  | DOT
  | ARROW
  (* operators *)
  | STAR
  | SLASH
  | PERCENT
  | PLUS
  | MINUS
  | PLUSPLUS
  | MINUSMINUS
  | AMP
  | AMPAMP
  | BAR
  | BARBAR
  | CARET
  | TILDE
  | BANG
  | LT
  | GT
  | LE
  | GE
  | EQEQ
  | NE
  | SHL
  | SHR
  | ASSIGN
  | PLUS_ASSIGN
  | MINUS_ASSIGN
  | STAR_ASSIGN
  | SLASH_ASSIGN
  | PERCENT_ASSIGN
  | AMP_ASSIGN
  | BAR_ASSIGN
  | CARET_ASSIGN
  | SHL_ASSIGN
  | SHR_ASSIGN
  | EOF

let to_string = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | CHAR_LIT c -> Printf.sprintf "%C" c
  | STRING_LIT s -> Printf.sprintf "%S" s
  | IDENT s -> Sym.name s
  | QUALNAME s -> "$" ^ s
  | KW_VOID -> "void"
  | KW_CHAR -> "char"
  | KW_SHORT -> "short"
  | KW_INT -> "int"
  | KW_LONG -> "long"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_SIGNED -> "signed"
  | KW_UNSIGNED -> "unsigned"
  | KW_CONST -> "const"
  | KW_VOLATILE -> "volatile"
  | KW_STRUCT -> "struct"
  | KW_UNION -> "union"
  | KW_ENUM -> "enum"
  | KW_TYPEDEF -> "typedef"
  | KW_STATIC -> "static"
  | KW_EXTERN -> "extern"
  | KW_REGISTER -> "register"
  | KW_AUTO -> "auto"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_DO -> "do"
  | KW_FOR -> "for"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | KW_SWITCH -> "switch"
  | KW_CASE -> "case"
  | KW_DEFAULT -> "default"
  | KW_GOTO -> "goto"
  | KW_SIZEOF -> "sizeof"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | SEMI -> ";"
  | COMMA -> ","
  | COLON -> ":"
  | QUESTION -> "?"
  | ELLIPSIS -> "..."
  | DOT -> "."
  | ARROW -> "->"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | PLUS -> "+"
  | MINUS -> "-"
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | AMP -> "&"
  | AMPAMP -> "&&"
  | BAR -> "|"
  | BARBAR -> "||"
  | CARET -> "^"
  | TILDE -> "~"
  | BANG -> "!"
  | LT -> "<"
  | GT -> ">"
  | LE -> "<="
  | GE -> ">="
  | EQEQ -> "=="
  | NE -> "!="
  | SHL -> "<<"
  | SHR -> ">>"
  | ASSIGN -> "="
  | PLUS_ASSIGN -> "+="
  | MINUS_ASSIGN -> "-="
  | STAR_ASSIGN -> "*="
  | SLASH_ASSIGN -> "/="
  | PERCENT_ASSIGN -> "%="
  | AMP_ASSIGN -> "&="
  | BAR_ASSIGN -> "|="
  | CARET_ASSIGN -> "^="
  | SHL_ASSIGN -> "<<="
  | SHR_ASSIGN -> ">>="
  | EOF -> "<eof>"
