//! Event schemas.
//!
//! A schema names and types the attributes of a class of primitive events,
//! e.g. the stock stream of the paper: `(id, name, price, volume, ts)`.
//! Schemas are immutable and shared (`Arc`) between the engine, the language
//! front end and the workload generators.

use std::fmt;
use std::sync::Arc;

use crate::error::EventError;
use crate::sym::Sym;
use crate::value::ValueType;

/// A named, typed attribute of a schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Attribute name as referenced by queries (`T1.price`).
    pub name: String,
    /// Declared value type.
    pub ty: ValueType,
}

/// An immutable primitive-event schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    name: Sym,
    fields: Vec<Field>,
}

impl Schema {
    /// Starts building a schema with the given stream name.
    pub fn builder(name: impl Into<String>) -> SchemaBuilder {
        SchemaBuilder { name: name.into(), fields: Vec::new() }
    }

    /// The stream/source name this schema describes.
    pub fn name(&self) -> &str {
        self.name.as_str()
    }

    /// The interned stream name — schema matching at intake compares this
    /// single integer instead of the name's bytes.
    #[inline]
    pub fn name_sym(&self) -> Sym {
        self.name
    }

    /// All fields in declaration order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn arity(&self) -> usize {
        self.fields.len()
    }

    /// Index of the field with the given name.
    pub fn field_index(&self, name: &str) -> Result<usize, EventError> {
        self.fields
            .iter()
            .position(|f| f.name == name)
            .ok_or_else(|| EventError::UnknownField(name.to_string()))
    }

    /// The canonical stock-trade schema used throughout the paper's examples:
    /// `(id: int, name: string, price: float, volume: int)`.
    ///
    /// The paper lists `ts` as part of the schema; here the timestamp is a
    /// first-class part of [`crate::Event`] instead of an attribute.
    pub fn stocks() -> Arc<Schema> {
        Arc::new(
            Schema::builder("Stocks")
                .field("id", ValueType::Int)
                .field("name", ValueType::Str)
                .field("price", ValueType::Float)
                .field("volume", ValueType::Int)
                .build()
                .expect("static schema is valid"),
        )
    }

    /// The web-access-log schema of §6.5: `(ip: string, url: string,
    /// category: string)`. `Time` is the event timestamp.
    pub fn weblog() -> Arc<Schema> {
        Arc::new(
            Schema::builder("WebLog")
                .field("ip", ValueType::Str)
                .field("url", ValueType::Str)
                .field("category", ValueType::Str)
                .build()
                .expect("static schema is valid"),
        )
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", field.name, field.ty)?;
        }
        write!(f, ")")
    }
}

/// Incremental [`Schema`] constructor.
#[derive(Debug)]
pub struct SchemaBuilder {
    name: String,
    fields: Vec<Field>,
}

impl SchemaBuilder {
    /// Appends a field; duplicate names are rejected at [`Self::build`].
    pub fn field(mut self, name: impl Into<String>, ty: ValueType) -> Self {
        self.fields.push(Field { name: name.into(), ty });
        self
    }

    /// Finishes the schema, validating field-name uniqueness.
    pub fn build(self) -> Result<Schema, EventError> {
        for (i, f) in self.fields.iter().enumerate() {
            if self.fields[..i].iter().any(|g| g.name == f.name) {
                return Err(EventError::DuplicateField(f.name.clone()));
            }
        }
        Ok(Schema { name: Sym::intern(&self.name), fields: self.fields })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_indexes_fields() {
        let s = Schema::stocks();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.field_index("price").unwrap(), 2);
        assert_eq!(s.fields()[s.field_index("name").unwrap()].ty, ValueType::Str);
        assert!(s.field_index("nope").is_err());
    }

    #[test]
    fn rejects_duplicate_fields() {
        let err = Schema::builder("S")
            .field("a", ValueType::Int)
            .field("a", ValueType::Float)
            .build()
            .unwrap_err();
        assert_eq!(err, EventError::DuplicateField("a".into()));
    }

    #[test]
    fn display_renders_fields() {
        let s = Schema::weblog();
        assert_eq!(s.to_string(), "WebLog(ip: string, url: string, category: string)");
    }
}
